"""Explicit bundle presentations with section bases and evaluation maps.

A presentation pins down a concrete bundle from the catalog — a direct sum
of line bundles on P^1 or the tangent bundle of P^2 presented as the Euler
quotient of O(1)^3 — together with a deterministic basis of the twisted
section space H^0(E(k)) and the pointwise evaluation matrix Q(x), an
N x r complex matrix in a fixed chart frame.  All Fubini-Study-type
metrics downstream are built from Q by sandwiching a hermitian form on
the section space: h(x) = Q(x)* H Q(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

import numpy as np

from . import exactsheaf as xs
from . import kernels
from .quadrature import QuadratureGrid, build_grid_p2


class LevelBelowRegularity(ValueError):
    pass


@dataclass(frozen=True)
class BundlePresentation:
    kind: str  # "split_p1" | "euler_tp2"
    degrees: tuple = ()

    def __post_init__(self):
        if self.kind not in ("split_p1", "euler_tp2"):
            raise ValueError(f"unknown bundle kind {self.kind!r}")
        object.__setattr__(self, "degrees", tuple(self.degrees))

    @property
    def rank(self) -> int:
        return len(self.degrees) if self.kind == "split_p1" else 2

    @property
    def space_tag(self) -> str:
        return "P1" if self.kind == "split_p1" else "P2"

    @property
    def degree(self) -> int:
        return sum(self.degrees) if self.kind == "split_p1" else 3

    def sheaf(self) -> xs.SheafData:
        if self.kind == "split_p1":
            return xs.split_p1(self.degrees)
        return xs.tangent_p2()

    def regularity(self) -> int:
        if self.kind == "split_p1":
            return xs.regularity_catalog(self.degrees)
        return xs.regularity_catalog("euler_tp2")


def split(*degrees: int) -> BundlePresentation:
    return BundlePresentation(kind="split_p1", degrees=degrees)


def euler_tp2() -> BundlePresentation:
    return BundlePresentation(kind="euler_tp2")


# ---------------------------------------------------------------------------
# Section bases


@dataclass(frozen=True)
class SectionBasis:
    """Deterministic basis of H^0(E(k)) with chart evaluation data.

    For split bundles the elements are monomials placed summand-major and
    graded; the optional orthonormalization rescales each monomial so
    that the basis is L2-orthonormal for the standard Fubini-Study
    metric, which makes H = identity the symmetric configuration.
    """

    bundle: BundlePresentation
    level: int
    dimension: int
    # split_p1: per-column list of (row_offset, coeffs); euler_tp2: exact
    # coefficient tensor of shape (N, 3, n_monomials) plus exponent table
    data: tuple

    @property
    def rank(self) -> int:
        return self.bundle.rank


def section_basis(bundle: BundlePresentation, k: int, orthonormal: bool = True) -> SectionBasis:
    if k < bundle.regularity():
        raise LevelBelowRegularity(
            f"level {k} is below the regularity {bundle.regularity()}"
        )
    if bundle.kind == "split_p1":
        cols = []
        offset = 0
        for a in bundle.degrees:
            d = a + k
            if orthonormal:
                coeffs = np.array([sqrt((d + 1) * comb(d, m)) for m in range(d + 1)])
            else:
                coeffs = np.ones(d + 1)
            cols.append((offset, coeffs))
            offset += d + 1
        n = offset
        expected = sum(xs.h0_p1(a + k) for a in bundle.degrees)
        assert n == expected
        return SectionBasis(bundle=bundle, level=k, dimension=n, data=tuple(cols))
    return _euler_basis(k, orthonormal)


def _monomials_p2(d: int):
    """Exponent table [(a1, a2)] for degree-d monomials Z0^(d-a1-a2) Z1^a1 Z2^a2,
    graded-lexicographic and symmetric-friendly."""
    return [(a1, a2) for a1 in range(d + 1) for a2 in range(d + 1 - a1)]


def _euler_basis(k: int, orthonormal: bool) -> SectionBasis:
    """Basis of H^0(T_P2(k)) = H^0(O(k+1))^3 / Euler image of H^0(O(k)).

    The complement of the Euler image is cut out exactly over the
    rationals: row-reduce the image, then take the standard unit vectors
    at the non-pivot coordinates.
    """
    mono1 = _monomials_p2(k + 1)
    mono0 = _monomials_p2(k)
    n1, n0 = len(mono1), len(mono0)
    dim = 3 * n1 - n0
    idx1 = {m: i for i, m in enumerate(mono1)}

    # Euler image: f -> (Z0 f, Z1 f, Z2 f) in monomial coordinates.
    image = []
    for (a1, a2) in mono0:
        row = [Fraction(0)] * (3 * n1)
        row[0 * n1 + idx1[(a1, a2)]] = Fraction(1)
        row[1 * n1 + idx1[(a1 + 1, a2)]] = Fraction(1)
        row[2 * n1 + idx1[(a1, a2 + 1)]] = Fraction(1)
        image.append(row)
    pivots = _rref_pivots(image)
    free = [j for j in range(3 * n1) if j not in pivots]
    assert len(free) == dim

    coeff = np.zeros((dim, 3, n1))
    for i, j in enumerate(free):
        coeff[i, j // n1, j % n1] = 1.0
    if orthonormal:
        coeff = _gram_orthonormalize(coeff, mono1, k)
    basis = SectionBasis(
        bundle=euler_tp2(), level=k, dimension=dim, data=(coeff, tuple(mono1))
    )
    assert dim == xs.h0_tangent_p2(k)
    return basis


def _rref_pivots(rows):
    """In-place exact Gauss elimination; returns the set of pivot columns."""
    pivots = set()
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.add(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _gram_orthonormalize(coeff: np.ndarray, mono1, k: int) -> np.ndarray:
    """Orthonormalize the complement basis against a fixed positive Gram
    form (chart values weighted by a Fubini-Study power), via Cholesky."""
    grid = build_grid_p2(n_simplex=6, n_angular=8, depth=6)
    q = _euler_q_field_from(coeff, mono1, grid.nodes)
    s = 1.0 + np.abs(grid.nodes[:, 0]) ** 2 + np.abs(grid.nodes[:, 1]) ** 2
    wt = grid.weights * s ** (-(k + 2))
    gram = np.einsum("m,mir,mjr->ij", wt, q, q.conj())
    gram = 0.5 * (gram + gram.conj().T)
    chol = np.linalg.cholesky(gram)
    new = np.linalg.solve(chol, coeff.reshape(coeff.shape[0], -1))
    return new.real.reshape(coeff.shape) if np.abs(new.imag).max() < 1e-14 else new.reshape(coeff.shape)


def _euler_q_field_from(coeff, mono1, nodes) -> np.ndarray:
    """Chart values of Euler-quotient sections: the triple (f0, f1, f2)
    evaluates to the tangent frame components (f1 - z1 f0, f2 - z2 f0)."""
    z1, z2 = nodes[:, 0], nodes[:, 1]
    vals = np.stack(
        [z1**a1 * z2**a2 for (a1, a2) in mono1], axis=-1
    )  # (M, n1)
    f = np.einsum("icm,xm->xic", np.asarray(coeff, dtype=complex), vals)  # (M, N, 3)
    q = np.empty(f.shape[:2] + (2,), dtype=complex)
    q[..., 0] = f[..., 1] - z1[:, None] * f[..., 0]
    q[..., 1] = f[..., 2] - z2[:, None] * f[..., 0]
    return q


# ---------------------------------------------------------------------------
# Evaluation maps


def q_field(basis: SectionBasis, nodes: np.ndarray) -> np.ndarray:
    """Evaluation matrices Q(x) for every node, shape (M, N, r)."""
    if basis.bundle.kind == "split_p1":
        z = np.asarray(nodes)
        out = np.zeros((z.size, basis.dimension, basis.rank), dtype=complex)
        for col, (offset, coeffs) in enumerate(basis.data):
            pw = z[:, None] ** np.arange(coeffs.size)[None, :]
            out[:, offset : offset + coeffs.size, col] = coeffs[None, :] * pw
        return out
    coeff, mono1 = basis.data
    return _euler_q_field_from(coeff, mono1, np.asarray(nodes))


def dq_dz_field(basis: SectionBasis, nodes: np.ndarray) -> np.ndarray:
    """Holomorphic z-derivative of Q(x) on P^1, shape (M, N, r)."""
    if basis.bundle.kind != "split_p1":
        raise NotImplementedError("analytic derivatives implemented on P1 only")
    z = np.asarray(nodes)
    out = np.zeros((z.size, basis.dimension, basis.rank), dtype=complex)
    for col, (offset, coeffs) in enumerate(basis.data):
        m = np.arange(coeffs.size)
        pw = np.zeros((z.size, coeffs.size), dtype=complex)
        pw[:, 1:] = m[1:] * z[:, None] ** (m[1:] - 1)
        out[:, offset : offset + coeffs.size, col] = coeffs[None, :] * pw
    return out


def h_ref_field(basis: SectionBasis, grid: QuadratureGrid, q=None) -> np.ndarray:
    """Reference metric h_ref(x) = Q(x)* Q(x) at every node, (M, r, r);
    ``q`` holds the chart values when the caller keeps them."""
    return kernels.field(basis, grid.nodes, q=q).transpose(2, 0, 1)
