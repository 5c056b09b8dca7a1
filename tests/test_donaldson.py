import numpy as np
import pytest

from bml import bergman as bg
from bml import bundles as bd
from bml import donaldson as don


def closed_form(t: float) -> float:
    """Log-det energy of the weight-(1, -1) path on O at level one."""
    return 2.0 * t / np.tanh(2.0 * t) - 1.0 if t > 0 else 0.0


def line_pair():
    basis = bd.section_basis(bd.split(0), 1)
    return basis, bg.one_ps(np.diag([1.0, -1.0]))


def catalog_pair():
    basis = bd.section_basis(bd.split(0, 2), 3)
    return basis, bg.two_step_one_ps(basis, [1], (2.0 / 3.0, -1.0))


def test_m2_vanishes_at_identity(grid_p1):
    basis, _ = catalog_pair()
    assert don.m2_don(basis, grid_p1, bg.identity_form(basis.dimension)) == pytest.approx(0.0, abs=1e-12)


def test_m2_closed_form(grid_p1_fine):
    basis, ps = line_pair()
    ts = [0.25, 0.5, 1.0, 1.5, 2.0]
    vals = don.m2_along_path(basis, grid_p1_fine, ps, ts)
    for t, v in zip(ts, vals):
        assert v == pytest.approx(closed_form(t), abs=1e-8)


def test_m1_closed_form(grid_p1_fine):
    # for this self-dual path the curvature pairing equals the log-det energy
    basis, ps = line_pair()
    ts = [0.5, 1.0, 2.0]
    vals = don.m1_curve(basis, grid_p1_fine, ps, ts, n_path=48)
    for t, v in zip(ts, vals):
        assert v == pytest.approx(closed_form(t), abs=1e-6)


def test_curvature_degree_analytic(grid_p1):
    basis, _ = catalog_pair()
    f = don.curvature_field(basis, grid_p1, bg.identity_form(basis.dimension))
    deg = grid_p1.integrate(np.trace(f, axis1=1, axis2=2).real)
    assert deg == pytest.approx(2.0, abs=1e-9)


def honest_metric(basis, H, z):
    """The metric on E itself: (h^T)^{-1} (1+|z|^2)^k with h = Q* H Q."""
    q = bd.q_field(basis, z)
    h = np.einsum("mni,nk,mkj->mij", q.conj(), H, q)
    tw = (1.0 + np.abs(z) ** 2) ** basis.level
    return tw[:, None, None] * np.linalg.inv(np.swapaxes(h, -1, -2))


def d4(f, z, step, direction):
    """Fourth-order central difference of f at z along direction (1 or 1j)."""
    s = direction * step
    return (8.0 * (f(z + s) - f(z - s)) - (f(z + 2 * s) - f(z - 2 * s))) / (12.0 * step[:, None, None])


def curvature_fd(basis, H, z, rel_step=1e-3):
    """Curvature density against the FS measure by nested differences:
    A = g^{-1} dg/dz, F = -(dA/dzbar) / pi, with a chart-relative step."""
    step = rel_step * (1.0 + np.abs(z))

    def g(w):
        return honest_metric(basis, H, w)

    def connection(w):
        return np.linalg.inv(g(w)) @ (0.5 * (d4(g, w, step, 1) - 1j * d4(g, w, step, 1j)))

    a_zbar = 0.5 * (d4(connection, z, step, 1) + 1j * d4(connection, z, step, 1j))
    return -((1.0 + np.abs(z) ** 2) ** 2)[:, None, None] * a_zbar


@pytest.fixture(scope="module")
def fd_reference(grid_p1):
    """The catalog pair at t = 0.5 with its finite-difference curvature:
    the one check of the closed form that shares none of its algebra."""
    basis, ps = catalog_pair()
    H = ps.form_at(0.5).matrix
    return basis, ps, H, curvature_fd(basis, H, grid_p1.nodes)


def test_curvature_fd_matches_analytic(grid_p1, fd_reference):
    basis, ps, H, ff = fd_reference
    fa = don.curvature_field(basis, grid_p1, ps.form_at(0.5))
    assert np.abs(fa - ff).max() < 1e-4 * np.abs(fa).max()


def test_m1_rate_fd_matches_analytic(grid_p1, fd_reference):
    basis, ps, H, ff = fd_reference
    q = bd.q_field(basis, grid_p1.nodes)
    h = np.einsum("mni,nk,mkj->mij", q.conj(), H, q)
    hdot = np.einsum("mni,nk,mkj->mij", q.conj(), H @ (2.0 * ps.generator), q)
    # tr(g^{-1} dg/dt F) = -tr(h^{-1} hdot F^T) for the honest g = (h^T)^{-1}
    integrand = -np.einsum("mij,mij->m", np.linalg.solve(h, hdot), ff).real
    want = grid_p1.integrate(integrand)
    assert don.m1_rate(basis, grid_p1, ps, 0.5) == pytest.approx(want, rel=1e-6)


def test_curvature_method_accepts_only_analytic(grid_p1):
    basis, ps = line_pair()
    with pytest.raises(ValueError, match="fd"):
        don.curvature_field(basis, grid_p1, ps.form_at(0.5), method="fd")
    with pytest.raises(ValueError, match="fd"):
        don.m1_curve(basis, grid_p1, ps, [1.0], method="fd")


def test_m1_curve_keeps_the_callers_order(grid_p1):
    basis, ps = line_pair()
    forward = don.m1_curve(basis, grid_p1, ps, [1.0, 2.0], n_path=16)
    assert forward[0] < forward[1]
    # same sorted times, so the same Gauss nodes: exact agreement
    assert np.array_equal(don.m1_curve(basis, grid_p1, ps, [2.0, 1.0], n_path=16), forward[::-1])
    # M1 = M2 on this self-dual path, so the two curves pair time by time
    m2 = don.m2_along_path(basis, grid_p1, ps, [2.0, 1.0])
    assert np.allclose(m2, forward[::-1], rtol=1e-8)
    # the Gauss rule counts distinct times, and a repeat adds no segment
    repeated = don.m1_curve(basis, grid_p1, ps, [2.0, 1.0, 2.0, 1.0], n_path=16)
    assert np.array_equal(repeated, forward[[1, 0, 1, 0]])
    with_zero = don.m1_curve(basis, grid_p1, ps, [0.0, 2.0, 0.0, 1.0], n_path=24)
    assert np.array_equal(with_zero, [0.0, forward[1], 0.0, forward[0]])
    with pytest.raises(ValueError, match="nonnegative"):
        don.m1_curve(basis, grid_p1, ps, [1.0, -0.5])


def test_curvature_requires_p1(grid_p2):
    basis = bd.section_basis(bd.euler_tp2(), 1)
    with pytest.raises(NotImplementedError):
        don.curvature_field(basis, grid_p2, bg.identity_form(basis.dimension))


def test_m2_slope_catalog(grid_p1):
    basis, ps = catalog_pair()
    ts = np.linspace(1.0, 12.0, 12)
    vals = don.m2_along_path(basis, grid_p1, ps, ts)
    fit = don.asymptotic_slope_fit(ts, vals, t_min=6.0)
    assert fit.slope == pytest.approx(-2.0 / 3.0, rel=1e-3)


def test_slope_fit_exact_line():
    ts = np.linspace(0.0, 10.0, 11)
    fit = don.asymptotic_slope_fit(ts, 3.0 * ts - 1.0, t_min=0.0)
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-12)
    assert fit.residual < 1e-12


def test_slope_fit_needs_tail_samples():
    ts = np.linspace(0.0, 10.0, 11)
    with pytest.raises(don.InsufficientSamples):
        don.asymptotic_slope_fit(ts, ts, t_min=9.0)


def test_relative_error_property():
    from fractions import Fraction

    ts = np.linspace(0.0, 10.0, 11)
    fit = don.asymptotic_slope_fit(ts, -2.0 * ts, t_min=0.0, predicted=Fraction(-2))
    assert fit.relative_error == pytest.approx(0.0, abs=1e-14)
