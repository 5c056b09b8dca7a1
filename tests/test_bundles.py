import numpy as np
import pytest

from bml import bundles as bd
from bml import exactsheaf as xs


def test_split_dimensions():
    basis = bd.section_basis(bd.split(0, 2), 3)
    assert basis.dimension == 10
    assert basis.rank == 2
    assert basis.bundle.degree == 2


def test_level_below_regularity_rejected():
    with pytest.raises(bd.LevelBelowRegularity):
        bd.section_basis(bd.split(-3), 2)
    # exactly at the regularity is allowed
    bd.section_basis(bd.split(-3), 3)


def test_euler_basis_dimension():
    for k in (0, 1, 2):
        basis = bd.section_basis(bd.euler_tp2(), k)
        assert basis.dimension == xs.h0_tangent_p2(k)
        assert basis.rank == 2


def test_q_field_shapes(grid_p1):
    basis = bd.section_basis(bd.split(0, 2), 3)
    q = bd.q_field(basis, grid_p1.nodes)
    assert q.shape == (grid_p1.nodes.size, 10, 2)


def test_dq_dz_matches_finite_difference():
    basis = bd.section_basis(bd.split(0, 2), 3)
    z = np.asarray([0.4 + 0.9j, -1.3 + 0.2j])
    d = bd.dq_dz_field(basis, z)
    eps = 1e-6
    fd = (bd.q_field(basis, z + eps) - bd.q_field(basis, z - eps)) / (2 * eps)
    assert np.abs(d - fd).max() < 1e-7


def test_orthonormal_line_bundle_is_balanced(grid_p1):
    """With the orthonormalized basis of a line bundle the identity is a
    balanced configuration: the center of mass is (r/N) I."""
    from bml.balance import center_of_mass

    basis = bd.section_basis(bd.split(2), 1)
    b = center_of_mass(basis, grid_p1, np.eye(basis.dimension))
    target = np.eye(basis.dimension) / basis.dimension
    assert np.abs(b - target).max() < 1e-12


def test_plain_monomial_basis_scaling():
    raw = bd.section_basis(bd.split(0), 2, orthonormal=False)
    assert all(np.allclose(c, 1.0) for _, c in raw.data)


def test_h_ref_positive(grid_p1):
    basis = bd.section_basis(bd.split(0, 2), 3)
    href = bd.h_ref_field(basis, grid_p1)
    assert np.linalg.eigvalsh(href)[:, 0].min() > 0
