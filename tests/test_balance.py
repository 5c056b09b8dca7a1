import numpy as np
import pytest

from bml import balance as bl
from bml import bergman as bg
from bml import bundles as bd
from bml import quadrature as qd


def random_form(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T + 0.5 * np.eye(n)


def test_center_of_mass_trace(grid_p1, rng):
    basis = bd.section_basis(bd.split(0, 2), 3)
    H = random_form(basis.dimension, rng)
    m = bl.center_of_mass(basis, grid_p1, H)
    # tr M(H) = rank exactly, for every positive form
    assert np.trace(m).real == pytest.approx(basis.rank, rel=1e-12)


def test_t_convention_on_symmetric_configuration():
    """The direction of the T-map: on split(2), k=0, the identity is a
    fixed point of T and a zero of the m2 gradient."""
    grid = qd.build_grid_p1(n_radial=4, n_angular=8, depth=6)
    basis = bd.section_basis(bd.split(2), 0)
    H = np.eye(basis.dimension)
    assert np.linalg.norm(bl.t_operator(basis, grid, H) - H) < 1e-10
    zeta = np.diag([1.0, 0.0, -1.0])
    assert abs(bl.m2_gradient(basis, grid, H, zeta)) < 1e-10


def test_t_operator_fixes_balanced_point(grid_p1):
    basis = bd.section_basis(bd.split(2), 1)
    n = basis.dimension
    out = bl.t_operator(basis, grid_p1, np.eye(n))
    assert np.abs(out - np.eye(n)).max() < 1e-12


def test_t_iterate_converges_line_bundle(grid_p1, rng):
    basis = bd.section_basis(bd.split(2), 2)
    H0 = random_form(basis.dimension, rng)
    state, history = bl.t_iterate(basis, grid_p1, H0, tol=1e-10)
    assert state.flag == "converged"
    assert state.residual < 1e-10
    assert history[-1].iteration == state.iteration
    assert [row.step for row in history] == ["t"] * state.iteration + ["none"]


def test_lm_agrees_with_t(grid_p1, rng):
    basis = bd.section_basis(bd.split(3), 2)
    H0 = random_form(basis.dimension, rng)
    st_t, _ = bl.t_iterate(basis, grid_p1, H0, tol=1e-10)
    st_lm, hist_lm = bl.lm_minimize(basis, grid_p1, H0, tol=1e-10)
    assert st_lm.flag == "converged"
    # a stable bundle never needs the m2-descent fallback
    assert [row.step for row in hist_lm] == ["lm"] * st_lm.iteration + ["none"]
    assert np.linalg.norm(st_t.H - st_lm.H) < 1e-6


@pytest.mark.parametrize("guard", [True, False])
def test_lm_divergence_ignores_roundoff(monkeypatch, guard):
    """The divergent LM solve on O(0)+O(2) takes the same path from I and
    from starts perturbed at roundoff level.  The acceptance margin alone
    keeps steps that move roundoff from being accepted; the stationarity
    guard also keeps the damping ladder from being probed there."""
    if not guard:
        monkeypatch.setattr(bl, "LM_STATIONARY", 0.0)
    grid = qd.build_grid_p1(n_radial=3, n_angular=8, depth=6)
    basis = bd.section_basis(bd.split(0, 2), 3)
    n = basis.dimension
    calls = []
    parts = bl._solver_parts
    monkeypatch.setattr(bl, "_solver_parts", lambda *a, **k: calls.append(1) or parts(*a, **k))
    starts = [np.eye(n)]
    for seed in (1, 2, 3):
        e = np.random.default_rng(seed).normal(size=(n, n))
        starts.append(np.eye(n) + 1e-14 * (e + e.T))
    iterations = set()
    for H0 in starts:
        calls.clear()
        state, history = bl.lm_minimize(basis, grid, H0, tol=1e-10, max_iter=200)
        assert state.flag == "diverged"
        assert bl.divergence_detect(history) == "unstable-like"
        assert bl.iterate_slope(history, weight_range=5.0 / 3.0) == pytest.approx(-2.0 / 3.0, abs=1e-9)
        if guard:
            assert len(calls) <= 2 * state.iteration
        assert max(row.rejected for row in history) <= 12
        iterations.add(state.iteration)
    assert len(iterations) == 1


def test_unstable_bundle_diverges(grid_p1):
    basis = bd.section_basis(bd.split(0, 2), 3)
    state, history = bl.t_iterate(basis, grid_p1, np.eye(basis.dimension), tol=1e-10, max_iter=300)
    assert state.flag == "diverged"
    assert state.spread_ratio > bl.SPREAD_RATIO_LIMIT
    assert bl.divergence_detect(history) == "unstable-like"
    slope = bl.iterate_slope(history, weight_range=5.0 / 3.0)
    assert slope == pytest.approx(-2.0 / 3.0, rel=0.05)


def test_m2_gradient_matches_finite_difference(grid_p1, rng):
    basis = bd.section_basis(bd.split(0, 2), 3)
    n = basis.dimension
    H = random_form(n, rng)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    z = 0.5 * (z + z.conj().T)
    z -= (np.trace(z).real / n) * np.eye(n)
    grad = bl.m2_gradient(basis, grid_p1, H, z)
    eps = 1e-6
    import scipy.linalg

    sigma = scipy.linalg.sqrtm(H)

    def m2_at(s):
        return bl.m2_value(basis, grid_p1, sigma @ scipy.linalg.expm(2.0 * s * z) @ sigma)

    fd = (m2_at(eps) - m2_at(-eps)) / (2 * eps)
    assert grad == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_destabilizing_gradient_value(grid_p1):
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.two_step_one_ps(basis, [1], (2.0 / 3.0, -1.0))
    grad = bl.m2_gradient(basis, grid_p1, np.eye(basis.dimension), ps.generator)
    assert grad == pytest.approx(-2.0 / 3.0, abs=1e-10)


def test_convexity_monitor():
    t = np.linspace(0, 1, 20)
    assert bl.convexity_monitor(t**2).passed
    report = bl.convexity_monitor(-(t**2))
    assert not report.passed
    assert report.min_second_difference < 0
    with pytest.raises(ValueError):
        bl.convexity_monitor([1.0, 2.0])


def test_divergence_detect_needs_history():
    with pytest.raises(bl.Inconclusive):
        bl.divergence_detect([])


def test_spectral_constant(grid_p1):
    c, spectrum = bl.spectral_constant(grid_p1)
    assert c == pytest.approx(4.0 * np.pi, rel=1e-10)
    # multiplicities of the first spherical-harmonic levels
    near = lambda v: int(np.sum(np.abs(spectrum - v) < 1e-6))
    assert near(0.0) == 1
    assert near(4.0 * np.pi) == 3
    assert near(12.0 * np.pi) == 5


def test_delta_diagnostic_trivial(grid_p1):
    basis = bd.section_basis(bd.split(2), 1)
    he = bl.hermitian_einstein_catalog(basis, grid_p1)
    diag = bl.delta_diagnostic(he, he, grid_p1)
    assert diag.delta == pytest.approx(1.0, abs=1e-12)
    assert diag.lower_bound == pytest.approx(0.0, abs=1e-12)


def test_delta_inequality_perturbed(grid_p1):
    basis = bd.section_basis(bd.split(2), 1)
    he = bl.hermitian_einstein_catalog(basis, grid_p1)
    n = basis.dimension
    w = np.linspace(0.5, -0.5, n)
    H = np.diag(np.exp(w - w.mean()))
    h = bg.fs_metric(basis, grid_p1, bg.HermitianForm(matrix=H.astype(complex)))
    diag = bl.delta_diagnostic(h, he, grid_p1)
    value = bl.donaldson_value_line(basis, grid_p1, H, he)
    assert diag.lower_bound > 0
    assert value >= diag.lower_bound - 1e-9


def test_missing_he_raises(grid_p2):
    basis = bd.section_basis(bd.euler_tp2(), 1)
    with pytest.raises(bl.MissingHE):
        bl.hermitian_einstein_catalog(basis, grid_p2)


def test_donaldson_value_line_requires_rank_one(grid_p1):
    basis = bd.section_basis(bd.split(0, 2), 3)
    he = bl.hermitian_einstein_catalog(basis, grid_p1)
    with pytest.raises(bl.MissingHE):
        bl.donaldson_value_line(basis, grid_p1, np.eye(basis.dimension), he)
