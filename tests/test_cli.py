import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from bml import bundles as bd
from bml import cli
from bml import config as cf

README = Path(__file__).resolve().parents[1] / "README.md"

LIGHT_GRID = {"n_radial": 4, "n_angular": 8, "depth": 8}


def write_cfg(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_mna_exit_zero(tmp_path, capsys):
    code = cli.main(
        ["mna", "--bundle", "split_p1:0,2", "--k", "3",
         "--ps", "two_step:1:2/3,-1", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "m_na: -10/3" in out
    assert "slope_verdict: unstable" in out
    summary = json.loads((tmp_path / "mna.json").read_text())
    assert summary["m_na"] == "-10/3"


def test_slope_with_config_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "kind": "slope", "bundle": "split_p1:0,2", "k": 3,
        "grid": LIGHT_GRID,
        "ps": {"type": "two_step", "weights": ["2/3", "-1"], "sub": [1]},
        "t_end": 12.0, "samples": 10, "tol": 0.01,
    })
    code = cli.main(["slope", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "slope.csv").exists()
    summary = json.loads((tmp_path / "slope.json").read_text())
    assert abs(summary["fitted_slope"] + 2.0 / 3.0) < 0.01


def test_slope_tolerance_failure_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, {
        "kind": "slope", "bundle": "split_p1:0,2", "k": 3,
        "grid": LIGHT_GRID,
        "ps": {"type": "two_step", "weights": ["2/3", "-1"], "sub": [1]},
        "t_end": 12.0, "samples": 10, "tol": 1e-16,
    })
    assert cli.main(["slope", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_missing_config_exits_one(tmp_path, capsys):
    assert cli.main(["slope", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_bundle_exits_one(capsys):
    assert cli.main(["mna", "--bundle", "mystery"]) == 1
    assert "error" in capsys.readouterr().err


def test_slope_without_path_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "slope", "grid": LIGHT_GRID})
    assert cli.main(["slope", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_overflowing_chart_exits_one_without_warnings(tmp_path, capsys):
    """Past the level ceiling of the default grid the chart overflows:
    slope names the node and exits 1, and chart evaluation prints no
    RuntimeWarning before it."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = cli.main(["slope", "--bundle", "split_p1:0,2", "--k", "80",
                         "--ps", "two_step:1:81/83,-1", "--out", str(tmp_path)])
    assert code == 1
    assert "NonFiniteChart" in capsys.readouterr().err
    assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []


def test_level_past_the_coefficient_range_exits_one(tmp_path, capsys):
    """A level whose basis coefficients overflow a float ends in one error
    line naming it, exit status 1, with no traceback."""
    code = cli.main(["slope", "--k", "1100", "--ps", "two_step:1:1101/1103,-1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: LevelTooLarge: level 1100:") and err.count("\n") == 1


def test_too_deep_a_grid_exits_one_without_warnings(tmp_path, capsys):
    """A grid depth whose outer nodes round onto the point at infinity is
    refused while the grid is built: one error line naming the depth, and
    no RuntimeWarning before it."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = cli.main(["balance", "--config", write_cfg(tmp_path, {"kind": "balance", "grid": {"depth": 49}}),
                         "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidResolution: depth 49:") and err.count("\n") == 1, err
    assert seen == []


def test_subgeodesic_on_one_section_exits_one(tmp_path, capsys):
    """N = 1 has no two-weight generator: the error names N."""
    assert cli.main(["subgeodesic", "--bundle", "split_p1:0", "--k", "0", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: ValueError: a two-weight generator needs at least 2 sections, got N = 1\n"


def test_subgeodesic_runs(tmp_path, capsys):
    code = cli.main(
        ["subgeodesic", "--bundle", "split_p1:0,2", "--k", "3",
         "--samples", "5", "--seed", "11", "--tol", "1e-5", "--out", str(tmp_path)]
    )
    assert code == 0
    summary = json.loads((tmp_path / "subgeodesic.json").read_text())
    assert summary["max_residual"] <= 1e-5


def test_balance_stable_bundle(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "kind": "balance", "bundle": "split_p1:2", "k": 1, "grid": LIGHT_GRID,
    })
    code = cli.main(["balance", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: converged (stable)" in out
    assert (tmp_path / "balance_t.csv").exists()
    assert (tmp_path / "balance_lm.csv").exists()


def test_balance_verdict_is_the_t_flag(tmp_path, capsys, monkeypatch):
    """`bml balance` reads its verdict from the T-solve's flag alone: a
    diverged solve is unstable-like, and a solve stopped at max_iter is
    inconclusive even when its residual is below 1e-8."""
    cfg = write_cfg(tmp_path, {"kind": "balance", "grid": LIGHT_GRID})
    args = ["balance", "--config", cfg, "--out", str(tmp_path)]
    assert cli.main(args + ["--bundle", "split_p1:0,2", "--k", "3"]) == 0
    assert "t_flag: diverged\n" in capsys.readouterr().out
    assert json.loads((tmp_path / "balance.json").read_text())["verdict"] == "unstable-like"

    t_iterate = cli.bl.t_iterate
    monkeypatch.setattr(cli.bl, "t_iterate", lambda basis, grid, H0, tol, max_iter: t_iterate(
        basis, grid, H0, tol=0.0, max_iter=30))
    assert cli.main(args + ["--bundle", "split_p1:2", "--k", "1"]) == 2
    summary = json.loads((tmp_path / "balance.json").read_text())
    assert summary["t_flag"] == "max_iter" and summary["t_residual"] < 1e-8
    assert summary["verdict"] == "inconclusive"


def test_balance_refuses_an_lm_run_past_its_budget_before_solving(tmp_path, capsys, monkeypatch):
    """On T_P2 at k = 5 (N = 63) the start I runs on the full grid, which
    has no rings, and its LM Jacobian needs about 3 GiB, past
    LM_MEMORY_BUDGET (t4 is N^4): `bml balance` refuses before the
    T-solve runs and writes nothing."""
    monkeypatch.setattr(cli.bl, "t_iterate", lambda *args, **kwargs: pytest.fail("T-solve ran"))
    code = cli.main(["balance", "--bundle", "euler_tp2", "--k", "5", "--out", str(tmp_path)])
    assert code == 1
    assert "LMMemoryExceeded" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_balance_of_a_diagonal_start_runs_at_level_36(tmp_path, capsys):
    """At k = 36 on O(0)+O(2) (N = 76) the start I takes the column route,
    with no N^4 tensor: the T-solve diverges, and the log-spread of its
    last step grows by log(N_max / N_min) = log(39/37).  LM stops at
    max_iter: its m2-descent steps spread H more slowly."""
    assert cli.main(["balance", "--bundle", "split_p1:0,2", "--k", "36", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "balance.json").read_text())
    assert (summary["verdict"], summary["t_flag"], summary["lm_flag"]) == ("unstable-like", "diverged", "max_iter")
    lines = (tmp_path / "balance_t.csv").read_text().splitlines()
    spread = [float(line.split(",")[3]) for line in lines[-2:]]
    assert spread[1] - spread[0] == pytest.approx(math.log(39 / 37), rel=1e-8)


def test_balance_of_a_diagonal_start_past_the_chart_ceiling_exits_one(tmp_path, capsys):
    """At k = 100 on O(0)+O(2) the |Q|^2 table of the column route
    overflows: one error line naming node 7424, the first node of the grid
    with an overflowed |Q_ic|^2 (ring 232, z = 32.1), exit status 1, no
    RuntimeWarning before it and nothing written."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = cli.main(["balance", "--bundle", "split_p1:0,2", "--k", "100", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NonFiniteChart: sandwich not finite at node 7424:") and err.count("\n") == 1, err
    assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["slope", "asymptote"])
def test_too_few_fit_samples_exit_one_before_any_chart(tmp_path, capsys, monkeypatch, kind):
    """With t_end 15, 9 samples put 4 in the fit window t >= 9, one fewer
    than the fit takes: one config error line naming ``samples`` and exit
    status 1, before any chart is evaluated.  The 10 samples of criterion
    4's config put 5 there and pass."""
    args = [kind, "--bundle", "split_p1:0,2", "--k", "3", "--ps", "two_step:1:2/3,-1", "--out", str(tmp_path)]
    with monkeypatch.context() as patch:
        patch.setattr(bd, "q_field", lambda *args: pytest.fail("chart evaluated"))
        assert cli.main(args + ["--samples", "9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'samples':") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []
    assert cli.main(args + ["--samples", "10"]) == 0


def test_non_object_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert cli.main(["mna", "--config", str(cfg)]) == 1
    assert "config must be a JSON object" in capsys.readouterr().err


def test_balance_csv_deterministic(tmp_path):
    """Every artifact of `bml balance`, the per-iterate CSVs included, is
    byte-identical across reruns."""
    cfg = write_cfg(tmp_path, {"kind": "balance", "grid": LIGHT_GRID})
    args = ["balance", "--config", cfg, "--bundle", "split_p1:2", "--k", "2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["balance.json", "balance_lm.csv", "balance_t.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_json_output_deterministic(tmp_path):
    args = ["mna", "--bundle", "split_p1:0,2", "--k", "3", "--ps", "two_step:1:2/3,-1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert (out1 / "mna.json").read_text() == (out2 / "mna.json").read_text()


def test_inline_ps_parsing():
    assert cf._parse_ps_flag("two_step:1:2/3,-1") == {
        "type": "two_step", "sub": [1], "weights": ["2/3", "-1"],
    }
    for text in ("none", "spiral:1", "diag:1,-1"):
        with pytest.raises(cf.ConfigError):
            cf._parse_ps_flag(text)


@pytest.mark.parametrize(
    "raw, argv, field",
    [
        ({"kind": "mna", "tee_end": 3}, [], "tee_end"),
        ({"kind": "subgeodesic", "samples": None}, [], "samples"),
        ({"kind": "balance", "grid": {"n_radial": "x"}}, [], "grid"),
        (None, ["--k", "abc"], "k"),
        (None, ["--ps", "two_step:5:2/3,-1"], "ps.sub"),
        (None, ["--t-end", "nan"], "t_end"),
        ({"kind": "subgeodesic"}, ["--tol", "inf"], "tol"),
        ({"kind": "verify"}, ["--k", "7", "--bundle", "split_p1:1,1"], "bundle"),
        ({"kind": "balance", "grid": {"n_radial": 2.7}}, [], "grid"),
        ({"kind": "mna", "k": 3.9}, [], "k"),
        ({"kind": "mna", "k": True}, [], "k"),
        ({"kind": "subgeodesic", "samples": 12.5}, [], "samples"),
        ({"kind": "subgeodesic", "seed": 1.5}, [], "seed"),
        ({"kind": "subgeodesic", "tol": True}, [], "tol"),
        ({"kind": "slope", "grid": {"n_simplex": 4}, "ps": "two_step:1:2/3,-1"}, [], "grid.n_simplex"),
        ({"kind": "balance", "bundle": "euler_tp2", "grid": {"n_radial": 4}}, [], "grid.n_radial"),
        ({"kind": "balance", "grid": {"n_rings": 4}}, [], "grid.n_rings"),
        (None, ["--ps", "two_step:1,1:2/3,-1"], "ps.sub"),
        ({"kind": "subgeodesic"}, ["--t-end", "0.05"], "t_end"),
        ({"kind": "subgeodesic"}, ["--bundle", "euler_tp2"], "bundle"),
        ({"kind": "balance"}, ["--tol", "0.5"], "tol"),
        ({"kind": "subgeodesic"}, ["--ps", "two_step:1:2/3,-1"], "ps"),
        ({"kind": "mna"}, ["--seed", "4"], "seed"),
        ({"kind": "mna", "grid": {"n_radial": 4}}, [], "grid"),
        (None, ["--k", "4", "--ps", "two_step:1:2/3,-1"], "ps.weights"),
        ({"kind": "mna"}, ["--ps", "two_step:1:4/3,-2"], "ps.weights"),
        ({"kind": "subgeodesic"}, ["--seed", "-1"], "seed"),
        (None, ["--ps", "two_step:1:2/0,-1"], "ps.weights"),
        ({"kind": "slope", "ps": {"type": "two_step", "sub": [1], "weights": ["2/0", "-1"]}}, [], "ps.weights"),
    ],
)
def test_bad_config_input_exits_one(tmp_path, capsys, raw, argv, field):
    """An unknown key, a null value, an unreadable flag or grid size, a
    fractional or boolean integer or a boolean number (which would be
    truncated or read as 1), a summand index out of range or repeated, a
    non-finite time or tolerance, a field the experiment does not read, a
    grid key of the other space or of none, two-step weights that are not
    trace-free at the level or exceed 1 or have a zero denominator, a
    subgeodesic end time below its draw window or bundle off P1, and a
    negative seed each exit 1 with one ConfigError line naming the field.
    Each value is checked under a kind that reads its field; without a
    config, under slope, which reads every field of mna."""
    kind = (raw or {}).get("kind", "slope")
    if raw is not None:
        argv = ["--config", write_cfg(tmp_path, raw)] + argv
    assert cli.main([kind, "--out", str(tmp_path)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field {field!r}") and err.count("\n") == 1, err
    assert not (tmp_path / f"{kind}.json").exists()


def _readme_command_line() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    """Every `bml ...` example of README's command-line section parses
    into a valid config, and its flags are exactly the parser's."""
    section = _readme_command_line()
    examples = [line for line in section.splitlines() if line.startswith("bml ") and "<" not in line]
    assert len(examples) >= 5
    parser = cli.build_parser()
    for line in examples:
        args = parser.parse_args(shlex.split(line)[1:])
        assert cli._config_from_args(args).kind == args.kind
    documented = set(re.findall(r"(--[a-z][a-z-]*)", section))
    sub = parser._subparsers._group_actions[0].choices["mna"]
    flags = {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
    assert documented == flags


def test_import_does_not_load_scipy():
    """scipy is a test-only dependency: the package itself runs on numpy.
    `import bml` loads no module of the package, so each is imported."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import importlib, pkgutil, sys, bml\n"
            "names = [m.name for m in pkgutil.iter_modules(bml.__path__)]\n"
            "assert names, bml.__path__\n"
            "for name in names:\n"
            "    importlib.import_module('bml.' + name)\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
