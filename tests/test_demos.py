"""Smoke tests: every demo's main() runs in-process and prints its report."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    ["demo_invariants", "demo_slope", "demo_balance", "demo_pinch", "demo_subgeodesic",
     "demo_asymptote"],
)
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
