import ast
import dataclasses
from math import factorial, sqrt
from pathlib import Path

import numpy as np
import pytest

from bml import bergman as bg
from bml import bundles as bd
from bml import balance as bl
from bml import exactsheaf as xs
from bml import kernels
from bml.quadrature import build_grid_p2


def test_split_dimensions():
    basis = bd.section_basis(bd.split(0, 2), 3)
    assert basis.dimension == 10
    assert basis.rank == 2
    assert basis.bundle.degree == 2


@pytest.mark.parametrize("bundle, k", [(bd.split(0, 2), 1018), (bd.split(0), 1020), (bd.euler_tp2(), 639)],
                         ids=["O(0)+O(2)", "O(0)", "T_P2"])
def test_first_level_past_the_coefficient_range_is_named(bundle, k):
    """At the first level whose orthonormal coefficients overflow a float
    the basis raises LevelTooLarge naming the level, not an OverflowError;
    the basis without them still builds."""
    with pytest.raises(bd.LevelTooLarge, match=f"level {k}:"):
        bd.section_basis(bundle, k)
    assert bd.section_basis(bundle, k, orthonormal=False).dimension == bundle.h0_at(k)
    if bundle.kind == "split_p1":
        assert bd.section_basis(bundle, k - 1).level == k - 1


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


def _euler_sections(basis):
    """(slot, (a1, a2)) per section, read from the run table: a section
    with runs in both columns is z^a (-z1, -z2), its column-0 monomial
    z^(a+e1); one with a single run in column j is z^a e_(j+1)."""
    terms = {}
    for offset, coeffs, (e1, e2), col in basis.data:
        for i in range(coeffs.size):
            terms.setdefault(offset + i, []).append((col, (e1, e2 + i)))
    for row in range(basis.dimension):
        (col, (a1, a2)), *rest = sorted(terms[row])
        yield (0, (a1 - 1, a2)) if rest else (col + 1, (a1, a2))


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
    for slot, a in _euler_sections(bd.section_basis(bd.euler_tp2(), k)):
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
    for offset, coeffs, _, col in basis.data:
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
    assert all(np.allclose(c, 1.0) for _, c, _, _ in raw.data)


def test_h_ref_positive(grid_p1):
    basis = bd.section_basis(bd.split(0, 2), 3)
    href = bd.h_ref_field(basis, grid_p1)
    assert np.linalg.eigvalsh(href)[:, 0].min() > 0


def _euler_reference(k, orthonormal, z):
    """Q of the T_P2 basis from its closed form as sections: coefficient
    times z^a times the chart frame of the slot, (-z1, -z2), e1 or e2."""
    d = k + 1
    sections = [(0, (a1, d - a1)) for a1 in range(d + 1)]
    sections += [(slot, a) for slot in (1, 2) for a in _monomials(d)]
    frame = np.zeros((3, 2, len(z)), dtype=complex)
    frame[0], frame[1, 0], frame[2, 1] = -z.T, 1.0, 1.0
    q = np.empty((len(z), len(sections), 2), dtype=complex)
    for i, (slot, (a1, a2)) in enumerate(sections):
        num = factorial(a1) * factorial(a2) * (k + 3 if slot == 0 else factorial(k + 2 - a1 - a2))
        coef = sqrt(factorial(k + 4) / num) if orthonormal else 1.0
        q[:, i] = (coef * z[:, 0] ** a1 * z[:, 1] ** a2 * frame[slot]).T
    return q


@pytest.mark.parametrize("orthonormal", [True, False])
@pytest.mark.parametrize("k", range(-1, 6))
def test_euler_chart_matches_the_section_formula(k, orthonormal, grid_p2):
    """The run table of T_P2 evaluates to coefficient z^a frame[slot], entry
    by entry to 1e-14 relative, with the same zeros."""
    z = grid_p2.nodes
    got = bd.q_field(bd.section_basis(bd.euler_tp2(), k, orthonormal=orthonormal), z)
    want = _euler_reference(k, orthonormal, z)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()


SPLIT_CASES = [((0, 2), 3), ((0, 2), 36), ((1, 1), 2), ((0,), 2), ((-1, 3), 5)]


@pytest.mark.parametrize("degrees,k", SPLIT_CASES)
def test_summand_rows_of_a_split_basis(degrees, k):
    """A summand's rows are its h0 sections, consecutive and in order; the
    run table's coefficient array of summand c has that many entries."""
    basis = bd.section_basis(bd.split(*degrees), k)
    start = 0
    for c, a in enumerate(degrees):
        rows = basis.summand_rows(c)
        assert len(rows) == xs.h0_p1(a + k) == basis.data[c][1].size
        assert rows.start == start
        start = rows.stop
    assert start == basis.dimension


@pytest.mark.parametrize("bundle,k", [(bd.split(*d), k) for d, k in SPLIT_CASES]
                         + [(bd.euler_tp2(), k) for k in range(-1, 6)])
def test_runs_cover_each_section_once(bundle, k):
    """Every section row is written by some run, and no (section, column)
    entry by two."""
    basis = bd.section_basis(bundle, k)
    hits = np.zeros((basis.dimension, basis.rank), dtype=int)
    for offset, coeffs, exponent, col in basis.data:
        assert len(exponent) == (1 if bundle.space_tag == "P1" else 2)
        assert 0 <= offset and offset + coeffs.size <= basis.dimension
        hits[offset : offset + coeffs.size, col] += 1
    assert hits.max() == 1
    assert (hits.sum(axis=1) >= 1).all()


def test_summand_rows_rejects_what_is_not_a_summand():
    from bml import bergman as bg

    basis = bd.section_basis(bd.split(0, 2), 3)
    for c in (-1, basis.rank, -basis.rank):
        with pytest.raises(ValueError, match=rf"summand {c} is outside \[0, 2\)"):
            basis.summand_rows(c)
    with pytest.raises(ValueError, match=r"summand -1 is outside"):
        bg.two_step_one_ps(basis, [-1], (1.0, -1.0))
    with pytest.raises(ValueError, match="not a split bundle"):
        bd.section_basis(bd.euler_tp2(), 1).summand_rows(0)


def test_chart_rejects_nodes_of_the_other_space(grid_p1, grid_p2):
    """A P^1 basis on P^2 nodes, and the T_P2 basis on P^1 nodes, are named
    errors, through q_field and through a solver quantity."""
    from bml import balance

    for bundle, grid, n in ((bd.split(0, 2), grid_p2, 2), (bd.euler_tp2(), grid_p1, 1)):
        basis = bd.section_basis(bundle, 2)
        match = rf"nodes with {n} coordinates for a chart on {bundle.space_tag}"
        with pytest.raises(ValueError, match=match):
            bd.q_field(basis, grid.nodes[:10])
        with pytest.raises(ValueError, match=match):
            bd.dq_dz_field(basis, grid.nodes[:10])
        with pytest.raises(ValueError, match=match):
            balance.m2_value(basis, grid, np.eye(basis.dimension))


def test_euler_dq_dz_is_the_last_coordinate_derivative():
    basis = bd.section_basis(bd.euler_tp2(), 2)
    z = np.asarray([[0.4 + 0.9j, -1.3 + 0.2j], [0.1 - 0.5j, 0.7 + 0.3j]])
    eps = np.array([0.0, 1e-6])
    fd = (bd.q_field(basis, z + eps) - bd.q_field(basis, z - eps)) / 2e-6
    assert np.abs(bd.dq_dz_field(basis, z) - fd).max() < 1e-7


def test_only_bundles_reads_the_section_table():
    """The run table is the format of `bundles` alone: no other module of
    the package and no demo reads a ``.data`` attribute."""
    src = Path(bd.__file__).parent
    demos = src.parents[1] / "demos"
    assert any(demos.glob("demo_*.py"))
    readers = []
    for path in sorted([*src.glob("*.py"), *demos.glob("*.py")]):
        if path.name == "bundles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "data" and isinstance(node.ctx, ast.Load):
                readers.append(f"{path.parent.name}/{path.name}:{node.lineno}")
    assert readers == []


@pytest.mark.parametrize("degrees", [(0,), (2,), (0, 2), (0, 1, 2), (-1, 1), (-2, 0, 3)])
@pytest.mark.parametrize("orthonormal", [True, False])
def test_p1_charts_are_torus_eigenbases(degrees, orthonormal, grid_p1, rng):
    """Q(e^{i theta} z) = Lambda(theta) Q(z) and dQ/dz(e^{i theta} z) =
    e^{-i theta} Lambda(theta) dQ/dz(z), Lambda diagonal, unitary and the
    same at every z: a diagonal form commutes with Lambda, so its fibre
    metric and curvature depend on |z| alone, which is what lets M2 and
    M1 along a diagonal 1-PS run on one node per torus orbit.  Lambda is
    diag(e^{i m theta}) with m the basis's characters, which T_P2 does not
    record.  The balance solvers take the column route on grid.orbits
    from a diagonal start, and the whole grid from any other start, a
    non-diagonal torus-invariant one included (balance._column_start).  A
    grid whose ring is one node is not reduced and takes the whole grid."""
    bundle = bd.split(*degrees)
    z = rng.normal(size=40) + 1j * rng.normal(size=40)
    for k in (bundle.regularity(), bundle.regularity() + 3):
        basis = bd.section_basis(bundle, k, orthonormal=orthonormal)
        q, dq = bd.q_field(basis, z), bd.dq_dz_field(basis, z)
        rows = q.transpose(1, 0, 2).reshape(basis.dimension, -1)  # per section: every (node, column)
        at = (np.arange(basis.dimension), np.abs(rows).argmax(axis=1))
        for theta in rng.uniform(0.0, 2.0 * np.pi, 3):
            turn = np.exp(1j * theta)
            got_q, got_dq = bd.q_field(basis, turn * z), bd.dq_dz_field(basis, turn * z)
            lam = got_q.transpose(1, 0, 2).reshape(basis.dimension, -1)[at] / rows[at]
            assert np.abs(np.abs(lam) - 1.0).max() < 1e-14
            assert np.abs(lam - turn ** basis.characters).max() < 1e-13
            for f, got in ((q, got_q), (dq / turn, got_dq)):
                err = np.abs(got - lam[None, :, None] * f).max(axis=(0, 2))
                assert (err <= 1e-13 * np.abs(f).max(axis=(0, 2))).all()

    assert len(grid_p1.orbits.nodes) * 16 == len(grid_p1.nodes)
    assert bg.one_ps(np.diag([1.0, -1.0])).rows.ndim == 1
    basis = bd.section_basis(bundle, bundle.regularity() + 1, orthonormal=orthonormal)
    a = rng.normal(size=(basis.dimension, basis.dimension))
    generic = a @ a.T + np.eye(basis.dimension)
    m = basis.characters
    invariant = generic * (m[:, None] == m[None, :])  # diagonal when no two sections share a character
    assert (invariant != np.diag(invariant.diagonal())).any() == (len(degrees) > 1)
    assert bl._column_start(grid_p1, np.eye(basis.dimension))
    assert bl._column_start(grid_p1, invariant) == (len(degrees) == 1)
    assert not bl._column_start(grid_p1, generic)
    unringed = dataclasses.replace(grid_p1, ring=1)
    assert unringed.orbits is unringed
    for H0 in (np.eye(basis.dimension), invariant, generic):
        assert not bl._column_start(unringed, H0)
    with pytest.raises(ValueError, match="P\\^1 only"):
        bd.section_basis(bd.euler_tp2(), 1).characters
