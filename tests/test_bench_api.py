"""The API the benchmark calls stays whole.

`bench/run.py --trace 1` wraps every name in `tracing.TRACED`, and each
workload constructor makes one warm-up call per kernel it times, so a
renamed or deleted function shows up here rather than only in a traced
benchmark run.  The tracer itself is not installed: it would rebind the
traced functions for the rest of the session.
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
    workloads = importlib.import_module("workloads")
    for name, make in workloads.WORKLOADS.items():
        assert make(np.random.default_rng(0)) is not None, name
