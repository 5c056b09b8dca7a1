import numpy as np
import pytest

from bml import bundles as bd
from bml import exactsheaf as xs
from bml import kernels
from bml.quadrature import build_grid_p2


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


def _monomials(d):
    return [(a1, a2) for a1 in range(d + 1) for a2 in range(d + 1 - a1)]


@pytest.mark.parametrize("k", range(-1, 6))
def test_euler_basis_complements_the_euler_image(k):
    """The Euler image of H^0(O(k)), f -> (Z0 f, Z1 f, Z2 f), together with
    the basis sections as unit vectors of H^0(O(k+1))^3 spans all of it."""
    idx = {a: i for i, a in enumerate(_monomials(k + 1))}
    n1 = len(idx)
    rows = []
    for a1, a2 in _monomials(k):
        row = np.zeros(3 * n1)
        row[[idx[a1, a2], n1 + idx[a1 + 1, a2], 2 * n1 + idx[a1, a2 + 1]]] = 1.0
        rows.append(row)
    for slot, a, _ in bd.section_basis(bd.euler_tp2(), k).data:
        rows.append(np.eye(3 * n1)[slot * n1 + idx[a]])
    assert len(rows) == 3 * n1
    assert np.linalg.matrix_rank(np.array(rows)) == 3 * n1


@pytest.mark.parametrize("k", [2, 6])
def test_euler_basis_is_orthonormal(k):
    """Against a 16-angle grid, which integrates the Gram form exactly at
    these levels: int <Q_i, Q_j> (1+|z|^2)^-(k+2) over the FS measure."""
    grid = build_grid_p2(n_simplex=6, n_angular=16, depth=1)
    basis = bd.section_basis(bd.euler_tp2(), k)
    s = 1.0 + np.abs(grid.nodes[:, 0]) ** 2 + np.abs(grid.nodes[:, 1]) ** 2
    q = bd.q_field(basis, grid.nodes) * np.sqrt(grid.weights * s ** -(k + 2))[:, None, None]
    x = q.transpose(1, 0, 2).reshape(basis.dimension, -1)
    gram = x.conj() @ x.T
    assert np.abs(gram - np.eye(basis.dimension)).max() < 1e-13


def test_q_field_shapes(grid_p1):
    basis = bd.section_basis(bd.split(0, 2), 3)
    q = bd.q_field(basis, grid_p1.nodes)
    assert q.shape == (grid_p1.nodes.size, 10, 2)


def _direct_chart(basis, z):
    """Q and dQ/dz of a split basis from z ** m, in the (M, N, r) layout."""
    q = np.zeros((z.size, basis.dimension, basis.rank), dtype=complex)
    d = np.zeros_like(q)
    for col, (offset, coeffs) in enumerate(basis.data):
        m = np.arange(coeffs.size)
        q[:, offset + m, col] = coeffs * z[:, None] ** m
        d[:, offset + m[1:], col] = coeffs[1:] * m[1:] * z[:, None] ** (m[1:] - 1)
    return q, d


def test_chart_recurrence_matches_direct_powers(grid_p1_fine):
    """At k = 36 on the default grid, where |z|^38 reaches 1e146, the
    power recurrence agrees with z ** m entry by entry."""
    basis = bd.section_basis(bd.split(0, 2), 36)
    z = grid_p1_fine.nodes
    for got, want in zip((bd.q_field(basis, z), bd.dq_dz_field(basis, z)), _direct_chart(basis, z)):
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()


@pytest.mark.parametrize("bundle", [bd.split(0, 2), bd.euler_tp2()], ids=["split", "euler"])
def test_chart_arrives_node_last(bundle, grid_p1, grid_p2):
    """q_field and dq_dz_field build the node-last layout of the core and
    return its transpose, so kernels.node_last copies nothing."""
    basis = bd.section_basis(bundle, 3)
    nodes = (grid_p1 if bundle.space_tag == "P1" else grid_p2).nodes[:100]
    fields = (bd.q_field, bd.dq_dz_field) if bundle.space_tag == "P1" else (bd.q_field,)
    for field in fields:
        x = field(basis, nodes)
        assert x.shape == (100, basis.dimension, 2)
        assert np.shares_memory(kernels.node_last(x), x)
        assert kernels.node_last(x).flags.c_contiguous


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
