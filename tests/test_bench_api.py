"""The API the benchmark calls stays whole.

`bench/run.py --trace 1` wraps every name in `tracing.TRACED`, and each
workload constructor makes one warm-up call per kernel it times, so a
renamed or deleted function shows up here rather than only in a traced
benchmark run.  One round of each workload runs its oracle checks, so
a change that breaks one fails here too.  The tracer itself is not
installed: it would rebind the traced functions for the rest of the
session.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def test_traced_names_resolve(bench_path):
    tracing = importlib.import_module("tracing")
    for name in tracing.TRACED:
        module_name, *path = name.split(".")
        obj = importlib.import_module(f"bml.{module_name}")
        for attr in path:
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_workloads_construct(bench_path):
    """Each workload constructs, and one round of it, timed as
    `bench/run.py` times it, passes every oracle check with no failed
    operation."""
    workloads = importlib.import_module("workloads")
    calibrate = importlib.import_module("calibrate")
    for name, make in workloads.WORKLOADS.items():
        work = make(np.random.default_rng(0))
        ops = workloads.Ops(calibrate.ScaledClock(work.CALIBRATION))
        work.round(ops)
        assert ops.failed == 0, (name, ops.wrong + ops.errors)
        assert ops.wrong == [], name
