"""Benchmark entry point for the `bml` workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in a fresh process
with one BLAS/OpenMP thread, importing `bml` from ``src/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# The names of workloads.WORKLOADS, repeated so this process need not import numpy.
WORKLOADS = ("energy_path", "balance_flow", "level_sweep", "pointwise_identities")
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes
MIN_ROUNDS = 3
# One BLAS/OpenMP thread; no bytecode caches, so that no run's set-up
# depends on what an earlier run left behind.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONDONTWRITEBYTECODE": "1"}
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "run", "trace"), default="main",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Workload process


def workload_process(args) -> dict:
    """Set up, then (unless only set-up is timed) run whole rounds until
    the next one would end past ``--seconds``."""
    spawned = float(os.environ["BENCH_SPAWNED"])
    sys.path[:0] = [str(SRC), str(BENCH)]
    import resource

    import numpy as np

    import bml
    if not Path(bml.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bml imported from {bml.__file__}, not from {SRC}")
    import workloads as wl

    work = wl.WORKLOADS[args.workload](np.random.default_rng(args.seed))
    setup_s = time.monotonic() - spawned

    import calibrate
    from tracing import Tracer

    # Set-up is interpreter-bound (imports, object construction).
    calibrate.measure("python")
    now = sorted(calibrate.measure("python") for _ in range(3))[1]
    setup_raw_s = setup_s
    setup_s *= calibrate.scale("python", now, now)[0]
    if args.role == "setup":
        return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}

    tracer = None
    if args.role == "trace":
        tracer = Tracer()
        tracer.install([wl])
    clock = calibrate.ScaledClock(work.CALIBRATION)
    ops = wl.Ops(clock)
    walls, cpus, scaled, per_round, shape_errors = [], [], [], [], []
    min_rounds = MIN_ROUNDS if tracer is None else 1
    start = time.perf_counter()
    while True:
        if tracer is not None:
            counts0, self0 = tracer.snapshot()
        expect = work.round(ops)
        wall, cpu, raw_wall, raw_cpu = clock.take()
        scaled.append((wall, cpu))
        walls.append(raw_wall)
        cpus.append(raw_cpu)
        sw = wall / raw_wall
        if tracer is not None:
            counts1, self1 = tracer.snapshot()
            counts = {k: counts1[k] - counts0[k] for k in counts1}
            per_round.append({
                "counts": counts,
                "self_ms": {k: 1e3 * (self1[k] - self0[k]) * sw for k in self1},
            })
            shape_errors += shape_check(counts, expect, first=len(per_round) == 1)
        elapsed = time.perf_counter() - start
        if len(walls) >= min_rounds and elapsed * (1 + 1 / len(walls)) > args.seconds:
            break

    for line in (ops.wrong + ops.errors + shape_errors)[:10]:
        print(f"[{args.workload}] {line}", file=sys.stderr)
    return {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall": walls,
        "cpu": cpus,
        "run_s": statistics.median(w for w, _ in scaled),
        "cpu_s": statistics.median(c for _, c in scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "digits": ops.digits,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "correct": not ops.wrong and not shape_errors,
        "rounds": per_round,
    }


def shape_check(counts, expect, first: bool) -> list:
    """The traced counts must match the round's known shape."""
    errors = []
    for fn, name in (("m1_rate", "donaldson.m1_rate.calls"),
                     ("t_operator", "balance.t_operator.calls")):
        if counts.get(name, 0) != expect[fn]:
            errors.append(f"{name} = {counts.get(name, 0)}, expected {expect[fn]}")
    if first and counts.get("bundles.q_field.calls", 0) <= 0:
        errors.append("bundles.q_field was never called")
    return errors


# ---------------------------------------------------------------------------
# Main process


def spawn(args, role: str, seconds: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds)]
    env = dict(os.environ, **CHILD_ENV)
    env["BENCH_SPAWNED"] = repr(time.monotonic())
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{role} process for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> dict:
    setups = [spawn(args, "setup", args.seconds) for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(args, "run", args.seconds)
    setups.append(run)
    print(f"[{args.workload}] raw set-up s "
          + " ".join(f"{s['setup_raw_s']:.3f}" for s in setups)
          + f"; {len(run['wall'])} rounds, raw round wall s "
          + " ".join(f"{w:.3f}" for w in run["wall"]), file=sys.stderr)
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
            "run_s": metric(run["run_s"], "s"),
            "cpu_s": metric(run["cpu_s"], "s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
            "oracle_digits": metric(run["digits"], "digits"),
        },
    }


def per_layer(args) -> dict:
    """Two traced processes; their first-round counts must agree exactly."""
    from tracing import COUNTS, TRACED

    runs = [spawn(args, "trace", args.seconds / 2) for _ in range(2)]
    first = [r["rounds"][0]["counts"] for r in runs]
    correct = all(r["correct"] for r in runs)
    for key in COUNTS:
        if first[0].get(key, 0) != first[1].get(key, 0):
            correct = False
            print(f"[{args.workload}] {key} differs between traced runs: "
                  f"{first[0].get(key, 0)} vs {first[1].get(key, 0)}", file=sys.stderr)
    rounds = [rnd for r in runs for rnd in r["rounds"]]
    print(f"[{args.workload}] traced run_s " + " ".join(f"{r['run_s']:.4f}" for r in runs),
          file=sys.stderr)
    metrics = {key: metric(first[0].get(key, 0), "count") for key in COUNTS}
    for name in TRACED:
        ms = statistics.median(rnd["self_ms"].get(name, 0.0) for rnd in rounds)
        metrics[f"{name}.self_ms"] = metric(ms, "ms")
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    if not (SRC / "bml" / "__init__.py").is_file():
        raise SystemExit(f"no bml sources under {SRC}")
    if args.role != "main":
        print(json.dumps(workload_process(args)))
        return 0
    result = per_layer(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
