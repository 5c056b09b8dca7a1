import numpy as np
import pytest
import scipy.linalg

from bml import bergman as bg
from bml import bundles as bd


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
    assert ps.scale == pytest.approx(8.0)
    assert ps.weights == pytest.approx((0.5, -1.0))
    assert [s.stop - s.start for s in ps.slices] == [2, 1]


def test_form_at_matches_expm(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    z = 0.5 * (z + z.conj().T)
    z -= (np.trace(z).real / 4) * np.eye(4)
    ps = bg.one_ps(z, normalize=False)
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


def test_fs_metric_positive_hermitian(grid_p1):
    basis = catalog_basis()
    h = bg.fs_metric(basis, grid_p1, bg.identity_form(basis.dimension))
    assert h.min_eigenvalue() > 0
    assert np.abs(h.values - np.conj(np.swapaxes(h.values, -1, -2))).max() < 1e-14


def test_bergman_path_matches_fs_metric(grid_p1):
    basis = catalog_basis()
    ps = catalog_ps(basis)
    t = 1.5
    a = bg.bergman_path(basis, grid_p1, ps, t).values
    b = bg.fs_metric(basis, grid_p1, ps.form_at(t)).values
    assert np.abs(a - b).max() < 1e-10 * np.abs(b).max()


def test_bergman_path_rejects_negative_time(grid_p1):
    with pytest.raises(ValueError):
        bg.bergman_path(catalog_basis(), grid_p1, catalog_ps(), -1.0)


def test_weight_filtration_catalog(rng):
    basis = catalog_basis()
    ps = catalog_ps(basis)
    pts = rng.normal(size=16) + 1j * rng.normal(size=16)
    ranks, v_dims, surviving = bg.weight_filtration(basis, ps, pts)
    assert ranks == [1, 2]
    assert v_dims == [6, 10]
    assert surviving == (0, 1)


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


def test_subgeodesic_guard_ignores_roundoff_floor():
    # draw 196 of this seed has a finite-difference error of 4e-9 at the
    # default step, all of it roundoff, which does not halve with the step
    for basis, ps, t, x in criterion5_draws(24):
        _, _, resid, _ = bg.subgeodesic_residual(basis, ps, t, x)
        assert resid <= 1e-5


def test_subgeodesic_guard_rejects_large_step():
    basis, ps, t, x = list(criterion5_draws(5))[20]
    bg.subgeodesic_residual(basis, ps, t, x)
    with pytest.raises(bg.StepTooLarge):
        bg.subgeodesic_residual(basis, ps, t, x, fd_step=0.5)
