import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from bml import bergman as bg
from bml import bundles as bd
from bml import kernels

from test_kernels import counted


def catalog_basis():
    return bd.section_basis(bd.split(0, 2), 3)


def catalog_ps(basis=None):
    basis = basis or catalog_basis()
    return bg.two_step_one_ps(basis, [1], (2.0 / 3.0, -1.0))


def test_one_ps_rejects_bad_generators():
    with pytest.raises(ValueError, match="hermitian"):
        bg.one_ps(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="trace-free"):
        bg.one_ps(np.diag([1.0, 1.0]))


def test_one_ps_normalization_and_clustering():
    ps = bg.one_ps(np.diag([4.0, 4.0, -8.0]))
    assert ps.weights == pytest.approx((0.5, -1.0))
    assert [s.stop - s.start for s in ps.slices] == [2, 1]


def test_one_ps_frame_of_a_diagonal_generator():
    """A diagonal generator's frame is the stable sort permutation of its
    diagonal, with exact unit columns; the path form is exactly diagonal."""
    diag = np.array([0.25, -1.0, 0.5, 0.25, 0.0])
    ps = bg.one_ps(np.diag(diag))
    assert ps.rows.tolist() == [2, 0, 3, 4, 1]
    assert np.array_equal(ps.vectors, np.eye(5)[:, ps.rows])
    assert np.array_equal(ps.eigenvalues, diag[ps.rows])
    assert ps.weights == (0.5, 0.25, 0.0, -1.0)
    for t in (0.0, 0.7, 9.0):
        assert np.array_equal(ps.form_at(t).matrix, np.diag(np.exp(2.0 * t * diag)))
    # rescaled as any generator is; the frame is the same permutation
    assert np.array_equal(bg.one_ps(np.diag(4.0 * diag)).rows, ps.rows)
    assert bg.one_ps(np.diag(4.0 * diag)).weights == ps.weights


@pytest.mark.parametrize("entry", [1e-3, 1e-17j])
def test_one_ps_frame_of_an_off_diagonal_generator(entry):
    zeta = np.diag([0.25, -1.0, 0.5, 0.25, 0.0]).astype(complex)
    zeta[1, 3], zeta[3, 1] = entry, np.conj(entry)
    ps = bg.one_ps(zeta)
    assert ps.rows is None
    assert np.abs(ps.vectors.conj().T @ ps.vectors - np.eye(5)).max() < 1e-14


def test_one_ps_decomposes_a_generator_once(monkeypatch, rng):
    """A non-diagonal generator costs one eigh, which gives its weights
    and frame; a rescaled one keeps that frame and divides the weights."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(calls, name, getattr(np.linalg, name)))
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    zeta = g + g.conj().T
    zeta -= (np.trace(zeta).real / 5) * np.eye(5)
    ps = bg.one_ps(zeta)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    monkeypatch.undo()
    lam = np.linalg.eigvalsh(zeta)
    norm = np.abs(lam).max()
    assert norm > 1.0
    assert np.allclose(ps.weights, lam[::-1] / norm, rtol=0, atol=1e-14)
    assert np.abs(ps.generator - zeta / norm).max() < 1e-15
    # the frame diagonalizes the rescaled generator, in decreasing weight
    d = ps.vectors.conj().T @ ps.generator @ ps.vectors
    assert np.abs(d - np.diag(ps.eigenvalues)).max() < 1e-14


def test_one_ps_eigenvalues_are_computed_once(rng):
    for ps in (catalog_ps(), bg.random_two_weight_ps(6, rng)):
        assert ps.eigenvalues is ps.eigenvalues
        assert not ps.eigenvalues.flags.writeable
        assert dataclasses.replace(ps, rows=None).eigenvalues is not ps.eigenvalues


def test_form_at_matches_expm(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    z = 0.5 * (z + z.conj().T)
    z -= (np.trace(z).real / 4) * np.eye(4)
    z /= np.abs(np.linalg.eigvalsh(z)).max()
    ps = bg.one_ps(z)
    for t in (0.0, 0.7, 2.1):
        expected = scipy.linalg.expm(2.0 * t * z)
        assert np.abs(ps.form_at(t).matrix - expected).max() < 1e-11 * np.linalg.norm(expected)


def test_form_at_names_loss_of_definiteness():
    # weights 1, 0, -1 in a random frame: once e^{2 spread t} nears 1/eps
    # the smallest eigenvalue of H(t) is roundoff of either sign
    rng = np.random.default_rng(9)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    ps = bg.one_ps((u * np.array([1.0, 0.0, -1.0])) @ u.conj().T)
    ps.form_at(8.0)
    with pytest.raises(bg.NotPositiveDefinite, match=r"at t=.*weight spread 2 gives"):
        for t in np.arange(8.0, 16.0, 0.25):
            ps.form_at(t)
    with pytest.raises(bg.NotPositiveDefinite, match="positive definite"):
        bg.HermitianForm(np.diag([1.0, -1.0]))


def test_form_past_the_float_range_is_named():
    """Once e^{2 w t} leaves the float range, in a permutation frame or a
    random one, H(t) is NotPositiveDefinite naming t and 2 spread t, as
    is a matrix with a NaN entry, with no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bg.NotPositiveDefinite, match=r"at t=1100.0: .* 2\*spread\*t = 3667"):
            catalog_ps().form_at(1100.0)
        with pytest.raises(bg.NotPositiveDefinite, match=r"at t=400.0: .* 2\*spread\*t = 1600"):
            bg.random_two_weight_ps(10, np.random.default_rng(1)).form_at(400.0)
        with pytest.raises(bg.NotPositiveDefinite, match="non-finite"):
            bg.HermitianForm(np.full((3, 3), np.nan))


def test_two_step_requires_trace_free():
    basis = catalog_basis()
    with pytest.raises(ValueError, match="trace-free"):
        bg.two_step_one_ps(basis, [1], (1.0, -1.0))


def test_two_step_block_structure():
    basis = catalog_basis()
    ps = catalog_ps(basis)
    diag = np.diag(ps.generator).real
    # O(0) block: 4 sections at level 3; O(2) block: 6 sections
    assert np.allclose(diag[:4], -1.0)
    assert np.allclose(diag[4:], 2.0 / 3.0)


def test_random_two_weight_ps_properties(rng):
    for _ in range(20):
        ps = bg.random_two_weight_ps(6, rng)
        assert len(ps.weights) == 2
        assert abs(np.trace(ps.generator)) < 1e-10
        assert np.abs(np.linalg.eigvalsh(ps.generator)).max() == pytest.approx(1.0)


def test_random_two_weight_ps_needs_two_sections(rng):
    with pytest.raises(ValueError, match="at least 2 sections, got N = 1"):
        bg.random_two_weight_ps(1, rng)


def test_fs_metric_positive_hermitian(grid_p1):
    basis = catalog_basis()
    h = bg.fs_metric(basis, grid_p1, bg.HermitianForm(np.eye(basis.dimension)))
    assert np.linalg.eigvalsh(h)[:, 0].min() > 0
    assert np.abs(h - np.conj(np.swapaxes(h, -1, -2))).max() < 1e-14


def test_commutator_small_for_two_weights(rng):
    basis = catalog_basis()
    worst = 0.0
    for _ in range(25):
        ps = bg.random_two_weight_ps(basis.dimension, rng)
        t = float(rng.uniform(0.2, 2.0))
        x = complex(rng.normal(), rng.normal())
        worst = max(worst, bg.commutator_residual(basis, ps, t, x))
    assert worst < 1e-10


def test_commutator_large_for_three_generic_weights(rng):
    basis = catalog_basis()
    n = basis.dimension
    lam = np.concatenate([np.full(3, 1.0), np.full(4, 0.1), np.full(3, -1.0)])
    lam -= lam.mean()
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _ = np.linalg.qr(g)
    ps = bg.one_ps((u * lam) @ u.conj().T)
    res = bg.commutator_residual(basis, ps, 1.0, 0.6 + 0.2j)
    assert res > 1e-4


def test_commutator_negative_control_for_generic_generators():
    """The negative control of criterion 6: on the bases of its draws a
    generic generator (Haar frame, N distinct trace-free Gaussian
    weights) gives a residual far from zero.  Over these 900 draws the
    smallest is 3.8e-3 and the median 8e-2; two-weight draws give at
    most 1e-15."""
    rng = np.random.default_rng(6)
    for basis in (bd.section_basis(bd.split(0, 2), 3), bd.section_basis(bd.split(0, 1), 2),
                  bd.section_basis(bd.split(1, 1), 2)):
        n = basis.dimension
        residuals = []
        for _ in range(300):
            u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            lam = rng.normal(size=n)
            ps = bg.one_ps((u * (lam - lam.mean())) @ u.conj().T)
            assert len(ps.weights) == n
            t, x = float(rng.uniform(0.1, 2.0)), complex(rng.normal(), rng.normal())
            residuals.append(bg.commutator_residual(basis, ps, t, x))
        assert min(residuals) > 1e-4, basis.bundle.label


def test_subgeodesic_residual_catalog(rng):
    basis = catalog_basis()
    for _ in range(10):
        ps = bg.random_two_weight_ps(basis.dimension, rng)
        t = float(rng.uniform(0.2, 2.5))
        x = complex(rng.normal(), rng.normal())
        lhs, rhs, resid, min_eig = bg.subgeodesic_residual(basis, ps, t, x)
        assert resid < 1e-6
        assert min_eig >= -1e-12
        assert np.abs(rhs - rhs.conj().T).max() < 1e-10


def criterion5_draws(seed):
    """The (basis, ps, t, x) draws of acceptance criterion 5's loop."""
    rng = np.random.default_rng(seed)
    catalog = (((0,), 1), ((2,), 1), ((0, 2), 3), ((1, 1), 2))
    cases = [bd.section_basis(bd.split(*d), k) for d, k in catalog]
    for i in range(200):
        basis = cases[i % len(cases)]
        ps = bg.random_two_weight_ps(basis.dimension, rng)
        yield basis, ps, float(rng.uniform(0.1, 3.0)), complex(rng.normal(), rng.normal())


def reference_rhs(basis, ps, t, x):
    """F*F assembled from the path form itself: sigma = sqrtm(H(t)),
    A = sigma Q, h^{-1/2} = inv(sqrtm(h)), one sandwich per product."""
    q = bd.q_field(basis, np.asarray([x]))[0]
    s = ps.form_at(t).matrix
    u = 2.0 * ps.generator
    a = scipy.linalg.sqrtm(s) @ q
    h = q.conj().T @ s @ q
    g = np.linalg.solve(h, a.conj().T @ (u @ a))
    f = (u @ a - a @ g) @ np.linalg.inv(scipy.linalg.sqrtm(h))
    return f.conj().T @ f


def definition_rhs(basis, ps, t, x):
    """F*F from the definitions: A = expm(zeta t) Q, h^{-1/2} by eigh."""
    q = bd.q_field(basis, np.asarray([x]))[0]
    a = scipy.linalg.expm(t * ps.generator) @ q
    u = 2.0 * ps.generator
    h = a.conj().T @ a
    g = np.linalg.solve(h, a.conj().T @ u @ a)
    lam, v = np.linalg.eigh(h)
    f = (u @ a - a @ g) @ ((v / np.sqrt(lam)) @ v.conj().T)
    return f.conj().T @ f


def reference_commutator(basis, ps, t, x):
    """The commutator residual in the frame inv(sqrtm(h_ref)), with the
    moment matrices sandwiched from S = H(t) and u = 2 zeta."""
    q = bd.q_field(basis, np.asarray([x]))[0]
    q = q @ np.linalg.inv(scipy.linalg.sqrtm(q.conj().T @ q))
    s = ps.form_at(t).matrix
    u = 2.0 * ps.generator
    mats = [q.conj().T @ m @ q for m in (s, s @ u, s @ u @ u)]
    return max(np.linalg.norm(a @ b - b @ a) / (np.linalg.norm(a) * np.linalg.norm(b))
               for i, a in enumerate(mats) for b in mats[i + 1:])


def test_subgeodesic_rhs_matches_references():
    for basis, ps, t, x in list(criterion5_draws(5))[:40]:
        rhs = bg.subgeodesic_residual(basis, ps, t, x)[1]
        for want in (reference_rhs(basis, ps, t, x), definition_rhs(basis, ps, t, x)):
            assert np.linalg.norm(rhs - want) <= 1e-10 * np.linalg.norm(want)


def test_commutator_matches_reference(rng):
    basis = catalog_basis()
    for _ in range(25):
        ps = bg.random_two_weight_ps(basis.dimension, rng)
        t = float(rng.uniform(0.2, 2.0))
        x = complex(rng.normal(), rng.normal())
        assert abs(bg.commutator_residual(basis, ps, t, x) - reference_commutator(basis, ps, t, x)) <= 1e-12
    # the three-weight generator of test_commutator_large_for_three_generic_weights
    rng = np.random.default_rng(12345)
    n = basis.dimension
    lam = np.concatenate([np.full(3, 1.0), np.full(4, 0.1), np.full(3, -1.0)])
    lam -= lam.mean()
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    ps = bg.one_ps((u * lam) @ u.conj().T)
    want = reference_commutator(basis, ps, 1.0, 0.6 + 0.2j)
    assert abs(bg.commutator_residual(basis, ps, 1.0, 0.6 + 0.2j) - want) <= 1e-10 * want


def test_identities_never_assemble_the_form(monkeypatch, rng):
    """Both identities work on e^{Lambda t} V* Q: no path form, no inverse."""
    calls = {"form_at": 0, "inv": 0}
    monkeypatch.setattr(bg.OnePS, "form_at", counted(calls, "form_at", bg.OnePS.form_at))
    monkeypatch.setattr(np.linalg, "inv", counted(calls, "inv", np.linalg.inv))
    for basis, ps, t, x in list(criterion5_draws(5))[:8]:
        bg.subgeodesic_residual(basis, ps, t, x)
        bg.commutator_residual(basis, ps, t, x)
    assert calls == {"form_at": 0, "inv": 0}


def test_commutator_past_the_form_positivity_limit():
    # spread 5/3: from t = 11, e^{2 spread t} exceeds 1/eps and H(t) is no
    # longer numerically positive; nothing in the identity is singular
    basis = catalog_basis()
    ps = bg.random_two_weight_ps(basis.dimension, np.random.default_rng(12))
    assert bg.commutator_residual(basis, ps, 12.0, 0.6 + 0.2j) < 1e-10


@pytest.mark.parametrize("t", [180.0, 300.0, 1000.0])
def test_commutator_far_along_the_path(t):
    # e^{Lambda t} alone overflows from t ~ 180 at this spread; the rows
    # are scaled by e^{(Lambda - w_max) t}, which no commutator sees
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.random_two_weight_ps(basis.dimension, np.random.default_rng(1))
    assert bg.commutator_residual(basis, ps, t, 0.6 + 0.2j) < 1e-10


@pytest.mark.parametrize("t", [180.0, 360.0])
def test_subgeodesic_far_along_the_path(t):
    # e^{2 Lambda t} overflows the floor's |S| from t ~ 180 and h itself
    # from t ~ 355 at this spread, though the chart at x is finite; A is
    # scaled by e^{(Lambda - w_max) t}, which G and F*F do not see
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.random_two_weight_ps(basis.dimension, np.random.default_rng(1))
    lhs, rhs, resid, min_eig = bg.subgeodesic_residual(basis, ps, t, 0.6 + 0.2j)
    assert np.isfinite(lhs).all() and np.isfinite(rhs).all()
    assert resid < 1e-10 and min_eig > -1e-12


def test_subgeodesic_guard_ignores_roundoff_floor():
    # draw 196 of this seed has a finite-difference error of 4e-9 at the
    # default step, all of it roundoff, which does not halve with the step
    for basis, ps, t, x in criterion5_draws(24):
        _, _, resid, _ = bg.subgeodesic_residual(basis, ps, t, x)
        assert resid <= 1e-5


def test_subgeodesic_guard_rejects_large_step(monkeypatch):
    basis, ps, t, x = list(criterion5_draws(5))[20]
    bg.subgeodesic_residual(basis, ps, t, x)
    monkeypatch.setattr(bg, "FD_STEP", 0.5)
    with pytest.raises(bg.StepTooLarge):
        bg.subgeodesic_residual(basis, ps, t, x)


@pytest.mark.parametrize("x", [1e60, 1e80, 1e200, complex(np.nan)], ids=["1e60", "1e80", "1e200", "nan"])
@pytest.mark.parametrize("identity", [bg.commutator_residual, bg.subgeodesic_residual],
                         ids=["commutator", "subgeodesic"])
def test_identities_name_an_overflowing_point(identity, x):
    """A point too far out for the level is named, without a warning: at
    1e60 the chart is finite and its Gram overflows, from 1e80 the chart
    itself does; nan is named the same way."""
    basis = catalog_basis()
    ps = bg.random_two_weight_ps(basis.dimension, np.random.default_rng(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kernels.NonFiniteChart) as info:
            identity(basis, ps, 1.0, x)
    err = info.value
    assert err.index == 0
    assert err.z == x or (np.isnan(x) and np.isnan(err.z))
    if np.isfinite(x):
        assert err.u == 1.0


def test_identities_work_shape(monkeypatch):
    """Per call, each identity evaluates the chart once, and the five
    finite-difference times of the subgeodesic share one stacked solve."""
    calls = {"q_field": 0, "solve": 0}
    monkeypatch.setattr(bg, "q_field", counted(calls, "q_field", bg.q_field))
    monkeypatch.setattr(np.linalg, "solve", counted(calls, "solve", np.linalg.solve))
    for basis, ps, t, x in list(criterion5_draws(5))[:4]:
        calls.update(q_field=0, solve=0)
        bg.subgeodesic_residual(basis, ps, t, x)
        assert calls == {"q_field": 1, "solve": 1}
        calls.update(q_field=0, solve=0)
        bg.commutator_residual(basis, ps, t, x)
        assert calls == {"q_field": 1, "solve": 0}


@pytest.mark.parametrize("bundle, k, sub", [((0, 2), 3, [1]), ((1, 1), 2, [0]), ((0, 2), 36, [0])])
def test_identities_in_a_permutation_frame(bundle, k, sub):
    """For a two-step 1-PS, V* Q is the row gather Q[rows]; both identities
    agree with the same generator through the GEMM by V*."""
    basis = bd.section_basis(bd.split(*bundle), k)
    n1 = sum(len(basis.summand_rows(c)) for c in sub)
    ps = bg.two_step_one_ps(basis, sub, (1.0 - n1 / basis.dimension, -n1 / basis.dimension))
    gemm = dataclasses.replace(ps, rows=None)
    rng = np.random.default_rng(3)
    for _ in range(5):
        t, x = float(rng.uniform(0.1, 3.0)), complex(rng.normal(), rng.normal())
        # normalized commutators are noise of scale one here
        assert abs(bg.commutator_residual(basis, ps, t, x)
                   - bg.commutator_residual(basis, gemm, t, x)) <= 1e-14
        for a, b in zip(bg.subgeodesic_residual(basis, ps, t, x)[:2],
                        bg.subgeodesic_residual(basis, gemm, t, x)[:2]):
            assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)
