import dataclasses
import warnings

import numpy as np
import pytest

from bml import balance as bl
from bml import bergman as bg
from bml import bundles as bd
from bml import donaldson as don
from bml import kernels
from bml import quadrature as qd


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
    assert bl.m2_value(basis, grid_p1, np.eye(basis.dimension)) == pytest.approx(0.0, abs=1e-12)


def test_m2_closed_form(grid_p1_fine):
    basis, ps = line_pair()
    ts = [0.25, 0.5, 1.0, 1.5, 2.0]
    vals = don.m2_along_path(basis, grid_p1_fine, ps, ts)
    for t, v in zip(ts, vals):
        assert v == pytest.approx(closed_form(t), abs=1e-8)


def test_m2_intercept_of_a_singular_limit(grid_p1_fine):
    """An oracle the quadrature can miss: on O(2) at level 2 (O(4), the
    Bernstein basis |s_m|^2 = C(4, m) u^m (1-u)^(4-m) of the moment u)
    the top weight 0.6 sits on z and z^2, which both vanish at z = 0, so
    the limit metric is singular there and at z = infinity.  M2(t) - 1.2t
    tends to int_0^1 log(u (1-u)^2 (4 + 2u)) du = -4 + 3 log 3 - log 2,
    up to O(t e^{-2t}); the log layers at both ends of [0, 1] are what
    the graded panels of the grid resolve, to the 1e-6 the quadrature
    states (2.5e-8 at the default depth 20, 2.5e-11 at depth 30)."""
    limit = -4.0 + 3.0 * np.log(3.0) - np.log(2.0)
    basis = bd.section_basis(bd.split(2), 2)
    ps = bg.one_ps(np.diag(0.6 * np.array([-2.0 / 3.0, 1.0, 1.0, -2.0 / 3.0, -2.0 / 3.0])))
    ts = np.array([40.0, 200.0])
    default = don.m2_along_path(basis, grid_p1_fine, ps, ts) - 1.2 * ts
    deep = don.m2_along_path(basis, qd.build_grid_p1(depth=30), ps, ts) - 1.2 * ts
    assert np.abs(default - limit).max() <= 1e-6
    assert abs(default[1] - default[0]) <= 1e-10
    assert np.abs(deep - limit).max() <= 1e-9


def test_m1_closed_form(grid_p1_fine):
    # for this self-dual path the curvature pairing equals the log-det energy
    basis, ps = line_pair()
    ts = [0.5, 1.0, 2.0]
    vals = don.m1_curve(basis, grid_p1_fine, ps, ts, n_path=48)
    for t, v in zip(ts, vals):
        assert v == pytest.approx(closed_form(t), abs=1e-6)


def test_curvature_degree_analytic(grid_p1):
    basis, _ = catalog_pair()
    f = don.curvature_field(basis, grid_p1, bg.HermitianForm(np.eye(basis.dimension)), method="analytic")
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
    fa = don.curvature_field(basis, grid_p1, ps.form_at(0.5), method="analytic")
    assert np.abs(fa - ff).max() < 1e-4 * np.abs(fa).max()


def test_m1_rate_fd_matches_analytic(grid_p1, fd_reference):
    basis, ps, H, ff = fd_reference
    q = bd.q_field(basis, grid_p1.nodes)
    h = np.einsum("mni,nk,mkj->mij", q.conj(), H, q)
    hdot = np.einsum("mni,nk,mkj->mij", q.conj(), H @ (2.0 * ps.generator), q)
    # tr(g^{-1} dg/dt F) = -tr(h^{-1} hdot F^T) for the honest g = (h^T)^{-1}
    integrand = -np.einsum("mij,mij->m", np.linalg.solve(h, hdot), ff).real
    want = grid_p1.integrate(integrand)
    assert don.m1_rate(basis, ps, 0.5, don._path_table(basis, grid_p1, ps)) == pytest.approx(want, rel=1e-6)


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


@pytest.mark.parametrize("ts", [[np.nan], [1.0, np.nan], [np.inf], [2.0, -np.inf]],
                         ids=["nan", "1-nan", "inf", "2-minus-inf"])
def test_non_finite_path_time_is_refused(ts, grid_p1, monkeypatch):
    """m1_curve and m2_along_path refuse a non-finite path time up front,
    naming it, before any chart is evaluated and with no warning: a NaN
    would otherwise take M1's running total and an infinity warn."""
    basis, ps = catalog_pair()
    monkeypatch.setattr(bd, "q_field", lambda *args: pytest.fail("chart evaluated"))
    bad = next(t for t in ts if not np.isfinite(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for energy in (don.m1_curve, don.m2_along_path):
            with pytest.raises(ValueError, match=f"path time must be finite, not {bad}"):
                energy(basis, grid_p1, ps, ts)


def orbit_case(name):
    """(basis, ps, M2 times, M1 times) of a diagonal 1-PS: the paths of
    criteria 2-4, split(0,1,2) with a generic diagonal generator and the
    k = 36 path of the level sweep."""
    if name == "criterion-2":
        basis, ps = line_pair()
        return basis, ps, np.concatenate([[0.5, 1.0, 2.0, 5.0, 10.0], np.linspace(1.0, 10.0, 10)]), [1.0, 5.0]
    if name in ("criterion-3", "criterion-4"):
        basis, ps = catalog_pair()
        return basis, ps, np.linspace(1.25, 15.0, 12), np.linspace(1.5, 15.0, 10)
    if name == "criterion-4-trivial":
        basis = bd.section_basis(bd.split(0), 2, orthonormal=False)
        return basis, bg.one_ps(np.diag([0.5, -1.0, 0.5])), [2.0, 20.0], np.linspace(0.0, 20.0, 9)
    if name == "split012-generic":
        basis = bd.section_basis(bd.split(0, 1, 2), 2)
        lam = np.random.default_rng(21).normal(size=basis.dimension)
        ps = bg.one_ps(np.diag(lam - lam.mean()))
        assert len(ps.weights) == basis.dimension
        return basis, ps, [0.5, 3.0, 12.0], [0.5, 3.0]
    basis = bd.section_basis(bd.split(0, 2), 36)
    return basis, bg.two_step_one_ps(basis, [1], (37 / 39, -1.0)), np.linspace(1.25, 15.0, 6), [1.25, 4.0]


@pytest.mark.parametrize("name", ["criterion-2", "criterion-3", "criterion-4", "criterion-4-trivial",
                                  "split012-generic", "level-sweep-k36"])
def test_orbits_match_the_full_grid(name, grid_p1_fine):
    """Along a diagonal 1-PS, M2 and M1 on one node per torus orbit agree
    with the whole grid (ring 1, so no reduction) to roundoff, and
    they are what m2_along_path, m1_curve and m1_rate give on the grid.
    The curvature of a path form, computed per orbit and repeated over
    its ring, differs from the whole grid's at each node by no more than
    the whole grid's own spread over that ring, entry by entry; that of a
    form in a non-diagonal frame is not reduced."""
    basis, ps, ts, ts_m1 = orbit_case(name)
    orbits = grid_p1_fine.orbits
    full = dataclasses.replace(grid_p1_fine, ring=1)
    assert len(orbits.nodes) == len(grid_p1_fine.nodes) // 32 and full.orbits is full
    # M1 reads the column table, whose per-column sums have no
    # cancellation: measured to 2.2e-15 (the trivial-saturation curve)
    # and to 1.4e-15 against the exact -148/39
    tol = 1e-14

    def rel(a, b):
        return np.abs(np.asarray(a) - b).max() / np.abs(b).max()

    m2 = don.m2_along_path(basis, orbits, ps, ts)
    assert rel(m2, don.m2_along_path(basis, full, ps, ts)) <= 1e-13
    assert m2.tobytes() == don.m2_along_path(basis, grid_p1_fine, ps, ts).tobytes()
    if name.startswith("criterion-4"):
        m1 = don.m1_curve(basis, orbits, ps, ts_m1, n_path=64)
        assert rel(m1, don.m1_curve(basis, full, ps, ts_m1, n_path=64)) <= tol
        assert m1.tobytes() == don.m1_curve(basis, grid_p1_fine, ps, ts_m1, n_path=64).tobytes()
    rates = [don.m1_rate(basis, ps, t, don._path_table(basis, orbits, ps)) for t in ts_m1]
    assert rel(rates, [don.m1_rate(basis, ps, t, don._path_table(basis, full, ps)) for t in ts_m1]) <= tol
    assert rates == [don.m1_rate(basis, ps, t, don._path_table(basis, grid_p1_fine, ps)) for t in ts_m1]
    if name == "level-sweep-k36":  # each summand's block is constant along the path
        assert rel(rates, -148 / 39) <= tol

    def rings(f):  # (orbits, nodes per orbit, r, r)
        return f.reshape(len(orbits.nodes), -1, *f.shape[1:])

    form = ps.form_at(ts_m1[-1])
    f_orbits = rings(don.curvature_field(basis, grid_p1_fine, form, method="analytic"))
    f_full = rings(don.curvature_field(basis, full, form, method="analytic"))
    for part in (np.real, np.imag):
        assert (np.abs(part(f_orbits) - part(f_full)) <= np.ptp(part(f_full), axis=1, keepdims=True)).all()
    mixed = bg.random_two_weight_ps(basis.dimension, np.random.default_rng(5)).form_at(0.5)
    assert don.curvature_field(basis, grid_p1_fine, mixed, method="analytic").tobytes() == \
        don.curvature_field(basis, full, mixed, method="analytic").tobytes()


def test_curvature_requires_p1(grid_p2):
    basis = bd.section_basis(bd.euler_tp2(), 1)
    with pytest.raises(NotImplementedError):
        don.curvature_field(basis, grid_p2, bg.HermitianForm(np.eye(basis.dimension)), method="analytic")


def endpoint_energy(basis, grid, H):
    """The combined energy of a line bundle in closed form at the end of
    the path: with v = log(h_ref / h_H) per node (the honest log-ratio)
    and F_0, F_1 the curvature densities of h_ref and h_H, M1 is
    (1/2) int v (F_0 + F_1) and mu M2 is -mu int v / Vol."""
    mu = float(basis.bundle.degree)
    q = kernels.chart(basis, grid.nodes)
    v = np.log(kernels.field(q, grid).real[0, 0]) - np.log(kernels.field(q, grid, H).real[0, 0])
    f0, f1 = (don.curvature_field(basis, grid, bg.HermitianForm(m), method="analytic").real[:, 0, 0]
              for m in (np.eye(len(H)), H))
    pairing, log_ratio = grid.integrate(np.stack([v * (f0 + f1), v]))
    return 0.5 * pairing - mu * log_ratio / grid.volume


@pytest.mark.parametrize("degree", [0, 2])
@pytest.mark.parametrize("amp", [0.6, 1.0, 3.0, 6.0])
def test_form_energy_is_the_endpoint_formula_on_line_bundles(degree, amp, grid_p1_fine):
    """form_energy against the endpoint formula on O(d) at k = 1, for
    H = diag(e^{w - mean w}), w = linspace(amp, -amp): amp 3 and 6 give
    ||zeta|| > 1, so their path is rescaled and ends at t = ||zeta||.
    Measured to 4.3e-13 relative.  The light grid is not fine enough
    for amp 6 on O(0) (both formulas are off by about 10% there)."""
    basis = bd.section_basis(bd.split(degree), 1)
    w = np.linspace(amp, -amp, basis.dimension)
    H = np.diag(np.exp(w - w.mean())).astype(complex)
    want = endpoint_energy(basis, grid_p1_fine, H)
    assert don.form_energy(basis, grid_p1_fine, H) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("s", [0.05, 0.2])
def test_form_energy_vanishes_at_automorphisms_of_rank_two(k, s, grid_p1):
    """On O(1)+O(1), H = diag(e^{2s} I, e^{-2s} I) over the two summands'
    sections is a constant gauge of the bundle: balanced, with combined
    energy 0 (measured to 8.5e-17)."""
    basis = bd.section_basis(bd.split(1, 1), k)
    d = np.empty(basis.dimension)
    d[basis.summand_rows(0)], d[basis.summand_rows(1)] = np.exp(2.0 * s), np.exp(-2.0 * s)
    assert abs(don.form_energy(basis, grid_p1, np.diag(d))) <= 1e-15


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
