"""Section bases and evaluation maps of the catalog bundles.

For a catalog bundle (an ``exactsheaf.SheafData``: a direct sum of line
bundles on P^1 or the tangent bundle of P^2 presented as the Euler
quotient of O(1)^3) this module builds a deterministic basis of the
twisted section space H^0(E(k)) and the pointwise evaluation matrix Q(x),
an N x r complex matrix in a fixed chart frame.  All Fubini-Study-type
metrics downstream are built from Q by sandwiching a hermitian form on
the section space: h(x) = Q(x)* H Q(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, sqrt

import numpy as np

from . import exactsheaf as xs
from . import kernels
from .quadrature import QuadratureGrid


class LevelBelowRegularity(ValueError):
    pass


def split(*degrees: int) -> xs.SheafData:
    return xs.split_p1(degrees)


def euler_tp2() -> xs.SheafData:
    return xs.tangent_p2()


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

    bundle: xs.SheafData
    level: int
    dimension: int
    # split_p1: per-column list of (row_offset, coeffs); euler_tp2:
    # (slot, (a1, a2), coefficient) per section (see _euler_basis)
    data: tuple

    @property
    def rank(self) -> int:
        return self.bundle.rank


def section_basis(bundle: xs.SheafData, k: int, orthonormal: bool = True) -> SectionBasis:
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
        assert n == bundle.h0_at(k)
        return SectionBasis(bundle=bundle, level=k, dimension=n, data=tuple(cols))
    return _euler_basis(k, orthonormal)


def _euler_basis(k: int, orthonormal: bool) -> SectionBasis:
    """Basis of H^0(T_P2(k)) = H^0(O(k+1))^3 / Euler image of H^0(O(k)).

    The Euler image of f is (Z0 f, Z1 f, Z2 f); its first slot covers every
    degree-(k+1) monomial that Z0 divides.  The complement: Z1^a1 Z2^a2
    with a1 + a2 = k+1 in the first slot, then every monomial in the second
    and in the third.  Their chart values z^a (-z1, -z2), z^a e1, z^a e2 are
    orthogonal, by torus invariance, for the Gram form
    int <Q, Q> (1+|z|^2)^-(k+2) over the FS measure of volume 1/2: z^a in
    one slot has square norm N(a) = a1! a2! (k+2-a1-a2)! / (k+4)!, a
    first-slot section N(a+e1) + N(a+e2).  ``data`` holds (slot, (a1, a2),
    coefficient) per section.
    """
    d = k + 1
    mono = [(a1, a2) for a1 in range(d + 1) for a2 in range(d + 1 - a1)]
    sections = [(0, (a1, d - a1)) for a1 in range(d + 1)]
    sections += [(slot, a) for slot in (1, 2) for a in mono]

    def coefficient(slot, a1, a2):
        # (k+4)! / (square norm), an exact integer ratio rounded once
        num = factorial(a1) * factorial(a2)
        num *= k + 3 if slot == 0 else factorial(k + 2 - a1 - a2)
        return sqrt(factorial(k + 4) / num) if orthonormal else 1.0

    data = tuple((slot, a, coefficient(slot, *a)) for slot, a in sections)
    assert len(data) == xs.h0_tangent_p2(k)
    return SectionBasis(bundle=euler_tp2(), level=k, dimension=len(data), data=data)


# ---------------------------------------------------------------------------
# Evaluation maps


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """z^m for m < n, shape (n, M), each row the one before times z."""
    pw = np.empty((n, len(z)), dtype=complex)
    pw[:1] = 1.0
    for m in range(1, n):
        np.multiply(pw[m - 1], z, out=pw[m])
    return pw


def q_field(basis: SectionBasis, nodes: np.ndarray) -> np.ndarray:
    """Evaluation matrices Q(x) for every node, shape (M, N, r).

    The values are built node-last, as an (N, r, M) array whose rows are
    coefficient times z^m from the power recurrence of _powers, and
    returned as its (M, N, r) transpose: `kernels.node_last` reads them
    back without a copy."""
    z = np.asarray(nodes)
    if basis.bundle.kind == "split_p1":
        pw = _powers(z, max(c.size for _, c in basis.data))
        out = np.zeros((basis.dimension, basis.rank, len(z)), dtype=complex)
        for col, (offset, coeffs) in enumerate(basis.data):
            d = coeffs.size
            np.multiply(coeffs[:, None], pw[:d], out=out[offset : offset + d, col])
        return out.transpose(2, 0, 1)
    slot, expo, coef = (np.asarray(c) for c in zip(*basis.data))
    n = basis.level + 2  # exponents up to k+1
    vals = coef[:, None] * _powers(z[:, 0], n)[expo[:, 0]] * _powers(z[:, 1], n)[expo[:, 1]]
    frame = np.zeros((3, 2, len(z)), dtype=complex)  # chart values of the slots
    frame[0], frame[1, 0], frame[2, 1] = -z.T, 1.0, 1.0
    return (vals[:, None] * frame[slot]).transpose(2, 0, 1)


def dq_dz_field(basis: SectionBasis, nodes: np.ndarray) -> np.ndarray:
    """Holomorphic z-derivative of Q(x) on P^1, shape (M, N, r), built
    node-last as q_field is."""
    if basis.bundle.kind != "split_p1":
        raise NotImplementedError("analytic derivatives implemented on P1 only")
    z = np.asarray(nodes)
    pw = _powers(z, max(c.size for _, c in basis.data) - 1)
    out = np.zeros((basis.dimension, basis.rank, len(z)), dtype=complex)
    for col, (offset, coeffs) in enumerate(basis.data):
        d = coeffs.size
        dc = np.arange(1, d) * coeffs[1:]  # d/dz z^m = m z^(m-1)
        np.multiply(dc[:, None], pw[: d - 1], out=out[offset + 1 : offset + d, col])
    return out.transpose(2, 0, 1)


def h_ref_field(basis: SectionBasis, grid: QuadratureGrid) -> np.ndarray:
    """Reference metric h_ref(x) = Q(x)* Q(x) at every node, (M, r, r)."""
    return kernels.field(basis, grid.nodes).transpose(2, 0, 1)
