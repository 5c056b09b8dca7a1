"""One test per acceptance criterion; each prints a single pass/fail line."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from bml import acceptance as ac
from bml import balance as bl
from bml import cli
from bml import kernels

README = Path(__file__).resolve().parents[1] / "README.md"


def _report(res):
    print(ac.format_line(res))
    assert res.passed, res.detail


def test_criterion_01_exact_identity_suite():
    _report(ac.run(1))


def test_criterion_02_closed_form_energy():
    _report(ac.run(2))


def test_criterion_03_logdet_slope():
    _report(ac.run(3))


def test_criterion_04_combined_energy():
    _report(ac.run(4))


def test_criterion_05_subgeodesic_positivity():
    _report(ac.run(5))


def test_criterion_06_commutation():
    _report(ac.run(6))


def test_criterion_06_fails_without_the_whitening(monkeypatch):
    """W = I in place of h_ref^{-1/2} up to a unitary leaves the moment
    matrices of a rank-2 Haar-frame draw non-commuting, which criterion 6
    must see; the 1 x 1 and diagonal draws alone cannot."""
    def unwhitened(h):
        return np.broadcast_to(np.eye(len(h))[:, :, None], h.shape).astype(complex), kernels.cholesky(h)

    monkeypatch.setattr(kernels, "whiten", unwhitened)
    res = ac.run(6)
    assert not res.passed, res.detail
    assert "0.00e+00 over 1000 draws" in res.detail


def test_criterion_07_balanced_existence():
    _report(ac.run(7))


def test_criterion_08_convexity():
    _report(ac.run(8))


def test_criterion_09_pinch_inequality():
    _report(ac.run(9))


def test_criterion_10_tangent_bundle_balance():
    _report(ac.run(10))


def test_criterion_registry_shape():
    assert [index for index, _, _ in ac.ROWS] == list(range(1, 11))
    assert len({name for _, name, _ in ac.ROWS}) == 10


def test_criterion_10_gates_verify(tmp_path, capsys, monkeypatch):
    """An LM solve on P^2 that stops short of convergence fails row 10,
    and with it `bml verify`: exit code 2, a FAIL line and a failed row in
    verify.json, while rows 1-9 still pass."""
    solve = bl.lm_minimize

    def one_step_on_p2(basis, grid, H0, tol=1e-10, *, max_iter):
        return solve(basis, grid, H0, tol, max_iter=1 if grid.space_tag == "P2" else max_iter)

    monkeypatch.setattr(bl, "lm_minimize", one_step_on_p2)
    assert cli.main(["verify", "--out", str(tmp_path)]) == 2
    assert "criterion 10 [FAIL] tangent-bundle balance on P2: residuals" in capsys.readouterr().out
    results = json.loads((tmp_path / "verify.json").read_text())["results"]
    assert [(r["index"], r["passed"]) for r in results] == [(i, i != 10) for i in range(1, 11)]


def test_a_raising_criterion_is_a_failed_row(tmp_path, capsys, monkeypatch):
    """A check that raises fails its own row, named by the error; the rows
    after it still run, verify.json is written and the exit code is 2."""
    def raises():
        raise kernels.SingularGram("fibre metric lost positivity")

    monkeypatch.setattr(ac, "ROWS", (
        (1, "before", lambda: (True, "ran")),
        (2, "raising", raises),
        (3, "after", lambda: (True, "ran")),
    ))
    assert cli.main(["verify", "--out", str(tmp_path)]) == 2
    assert "criterion 2 [FAIL] raising: raised SingularGram: fibre metric lost positivity" in (
        capsys.readouterr().out)
    results = json.loads((tmp_path / "verify.json").read_text())["results"]
    assert [(r["index"], r["passed"]) for r in results] == [(1, True), (2, False), (3, True)]
    assert results[1]["detail"] == "raised SingularGram: fibre metric lost positivity"


SUBGEODESIC_LINES = "\n".join(
    f"bml subgeodesic --bundle {bundle} --k {k} --t-end 3 --samples 50 --tol 1e-5 --seed 5"
    for bundle, k in (("split_p1:0", 1), ("split_p1:2", 1), ("split_p1:0,2", 3), ("split_p1:1,1", 2)))


@pytest.mark.parametrize("index, config, line, key, spec", [
    (3, (ac.SLOPE,), "bml slope --bundle split_p1:0,2 --k 3 --ps two_step:1:2/3,-1 --t-end 15 "
     "--samples 12 --tol 0.006666666666666666", "fitted_slope", ".8f"),
    (4, (ac.ASYMPTOTE,), "bml asymptote --bundle split_p1:0,2 --k 3 --ps two_step:1:2/3,-1 --t-end 15 "
     "--samples 10 --tol 0.02", "fitted_mdon_slope", ".6f"),
    (5, ac.SUBGEODESIC, SUBGEODESIC_LINES, "max_residual", ".2e"),
])
def test_verify_agrees_with_the_cli(tmp_path, index, config, line, key, spec):
    """Criteria 3, 4 and 5 are the README's `bml slope`, `bml asymptote`
    and `bml subgeodesic` commands, one config per line: each command
    parses to its config and exits 0, and the largest number the
    commands write is the one the criterion reports."""
    assert line in README.read_text(encoding="utf-8")
    values = []
    for cfg, command in zip(config, line.splitlines(), strict=True):
        argv = shlex.split(command)[1:]
        assert cli._config_from_args(cli.build_parser().parse_args(argv)) == cfg
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        values.append(json.loads((tmp_path / f"{argv[0]}.json").read_text())[key])
    assert format(max(values), spec) in ac.run(index).detail
