"""Every function of `src/bml` that no run of the lab enters is listed with
its reason.

The runs are every `bml` example of the README's command line (among
them `bml verify`, all ten criteria), one `--config` file with a grid,
one round of each benchmark workload (as `tests/test_bench_api.py` runs
it) and each demo's `main()`.  They run in a fresh interpreter, so that
no cache of the test session hides a call, under `sys.settrace`, which
sees every Python frame entered.  The functions of `src/bml` (every
`def`, nested ones included) that none of them enters must be exactly
UNREACHED: code that no run reaches is kept for a stated reason or
deleted, and an entry leaves the list once a run reaches it.

    python3 tests/test_traffic.py OUT_DIR

runs the lab alone and writes the entered functions to
OUT_DIR/entered.json.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bml"

_JETS = "the jet route: the tests' reference for the column route (ROADMAP items 1 and 20)"
_TRACED = "wrapped by the traced benchmark, called by no run (ROADMAP item 6)"
_ERROR = "reached only on an error path"

UNREACHED = {
    "donaldson._path_jets": _JETS,
    "donaldson._weighted": _JETS,
    "donaldson._curvature_frame": _JETS,
    "bundles.dq_dz_field": _JETS,
    "balance.center_of_mass": _TRACED,
    "balance.m2_value": _TRACED,
    "quadrature.QuadratureGrid.name": _ERROR,
    "config.ConfigError.__init__": _ERROR,
    "kernels.NonFiniteChart.__init__": _ERROR,
    "quadrature.NonFiniteIntegrand.__init__": _ERROR,
}


def defined() -> dict:
    """{(file name, first line): dotted name} of every function of
    src/bml; the first line is that of its first decorator, as in
    co_firstlineno."""
    found = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(file, first)] = prefix + child.name
                visit(child, file, f"{prefix}{child.name}.")
            else:
                visit(child, file, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, f"{path.stem}.")
    return found


def _readme_commands() -> list:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [line.split()[1:] for line in section.splitlines() if line.startswith("bml ") and "<" not in line]


def run_the_lab(out: Path) -> None:
    prefix = str(SRC) + os.sep
    entered = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            entered.add((Path(frame.f_code.co_filename).name, frame.f_code.co_firstlineno))

    sys.path[:0] = [str(SRC.parent), str(ROOT / "bench")]
    sys.settrace(trace)
    import numpy as np
    from bml import cli
    import calibrate
    import workloads

    config = out / "grid.json"
    config.write_text(json.dumps({"kind": "balance", "bundle": "split_p1:2", "k": 2,
                                  "grid": {"n_radial": 4, "n_angular": 8, "depth": 8}}))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in [*_readme_commands(), ["balance", "--config", str(config)]]:
            assert cli.main(argv + ["--out", str(out)]) == 0, argv
        for name, make in workloads.WORKLOADS.items():
            work = make(np.random.default_rng(0))
            ops = workloads.Ops(calibrate.ScaledClock(work.CALIBRATION))
            work.round(ops)
            assert ops.failed == 0, name
        for path in sorted((ROOT / "demos").glob("demo_*.py")):
            spec = importlib.util.spec_from_file_location(path.stem, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            module.main()
    sys.settrace(None)
    (out / "entered.json").write_text(json.dumps(sorted(entered)))


def test_every_function_no_run_enters_is_listed(tmp_path):
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning", __file__, str(tmp_path)],
                   cwd=tmp_path, check=True, timeout=600)
    entered = {tuple(key) for key in json.loads((tmp_path / "entered.json").read_text())}
    never = {name for key, name in defined().items() if key not in entered}
    assert (sorted(never - set(UNREACHED)), sorted(set(UNREACHED) - never)) == ([], [])


if __name__ == "__main__":
    run_the_lab(Path(sys.argv[1]))
