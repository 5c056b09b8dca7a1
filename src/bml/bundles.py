"""Section bases and evaluation maps of the catalog bundles.

For a catalog bundle (an ``exactsheaf.SheafData``: a direct sum of line
bundles on P^1 or the tangent bundle of P^2 presented as the Euler
quotient of O(1)^3) this module builds a deterministic basis of the
twisted section space H^0(E(k)) as one table of monomial runs and the
pointwise evaluation matrix Q(x), an N x r complex matrix in the chart
frame that the table's columns name.  All Fubini-Study-type metrics
downstream are built from Q by sandwiching a hermitian form on the
section space: h(x) = Q(x)* H Q(x).
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


class LevelTooLarge(ValueError):
    """The orthonormal coefficients of the level overflow a float."""


def split(*degrees: int) -> xs.SheafData:
    return xs.split_p1(degrees)


def euler_tp2() -> xs.SheafData:
    return xs.SheafData("euler_tp2")


# ---------------------------------------------------------------------------
# Section bases


@dataclass(frozen=True)
class SectionBasis:
    """Deterministic basis of H^0(E(k)) as monomial runs (offset, coeffs,
    exponent, column) in ``data``: section offset + i is coeffs[i]
    z^exponent z_last^i in fibre column ``column``, z_last the last chart
    coordinate.  Run c of a split bundle on P^1 is summand c, exponent
    (0,); the optional orthonormalization makes the basis L2-orthonormal
    for the standard Fubini-Study metric, so H = identity is the
    symmetric configuration.  T_P2: see _euler_basis.  Only this module
    reads ``data``; a summand's rows come from `summand_rows`."""

    bundle: xs.SheafData
    level: int
    dimension: int
    data: tuple

    @property
    def rank(self) -> int:
        return self.bundle.rank

    def summand_rows(self, c: int) -> range:
        """The section rows of summand c of a split bundle."""
        if self.bundle.kind != "split_p1":
            raise ValueError(f"{self.bundle.label} is not a split bundle: it has no summand rows")
        if not 0 <= c < self.rank:
            raise ValueError(f"summand {c} is outside [0, {self.rank}) for {self.bundle.label}")
        return range(self.data[c][0], self.data[c][0] + self.data[c][1].size)

    @property
    def characters(self) -> np.ndarray:
        """The torus character m of each section row on P^1, z^(exponent + i)
        for row offset + i of a run: Q(e^{i theta} z) = diag(e^{i m theta})
        Q(z).  T_P2's torus also moves its fibre frame: not recorded."""
        if self.bundle.space_tag != "P1":
            raise ValueError(f"{self.bundle.label}: torus characters are recorded on P^1 only")
        return np.concatenate([e[-1] + np.arange(c.size) for _, c, e, _ in self.data])


def section_basis(bundle: xs.SheafData, k: int, orthonormal: bool = True) -> SectionBasis:
    if k < bundle.regularity():
        raise LevelBelowRegularity(
            f"level {k} is below the regularity {bundle.regularity()}"
        )
    try:
        if bundle.kind != "split_p1":
            return _euler_basis(k, orthonormal)
        runs, n = [], 0
        for col, a in enumerate(bundle.degrees):
            d = a + k
            coeffs = np.array([sqrt((d + 1) * comb(d, m)) for m in range(d + 1)]) if orthonormal else np.ones(d + 1)
            runs.append((n, coeffs, (0,), col))
            n += d + 1
    except OverflowError as err:
        raise LevelTooLarge(f"level {k}: the orthonormal basis coefficients of {bundle.label} "
                            f"overflow a float ({err})") from err
    assert n == bundle.h0_at(k)
    return SectionBasis(bundle=bundle, level=k, dimension=n, data=tuple(runs))


def _euler_basis(k: int, orthonormal: bool) -> SectionBasis:
    """Basis of H^0(T_P2(k)) = H^0(O(k+1))^3 / Euler image of H^0(O(k)).

    The Euler image of f is (Z0 f, Z1 f, Z2 f); its first slot covers every
    degree-(k+1) monomial that Z0 divides.  The complement: Z1^a1 Z2^a2
    with a1 + a2 = k+1 in the first slot, then every monomial in the second
    and in the third.  Their chart values z^a (-z1, -z2), z^a e1, z^a e2 are
    orthogonal, by torus invariance, for the Gram form
    int <Q, Q> (1+|z|^2)^-(k+2) over the FS measure of volume 1/2: z^a in
    one slot has square norm N(a) = a1! a2! (k+2-a1-a2)! / (k+4)!, a
    first-slot section N(a+e1) + N(a+e2).  A first-slot section is two
    one-monomial runs, -z^(a+e1) in column 0 and -z^(a+e2) in column 1;
    the second and third slots are runs over a2 at fixed a1.
    """
    d = k + 1
    f = [factorial(i) for i in range(k + 5)]

    def coefficient(slot, a1, a2):
        # (k+4)! / (square norm), an exact integer ratio rounded once
        if not orthonormal:
            return 1.0
        return sqrt(f[k + 4] / (f[a1] * f[a2] * (k + 3 if slot == 0 else f[k + 2 - a1 - a2])))

    runs = [(a1, np.array([-coefficient(0, a1, d - a1)]), (a1 + 1 - col, d - a1 + col), col)
            for a1 in range(d + 1) for col in (0, 1)]
    n = d + 1
    for col in (0, 1):
        for a1 in range(d + 1):
            runs.append((n, np.array([coefficient(col + 1, a1, a2) for a2 in range(d + 1 - a1)]), (a1, 0), col))
            n += d + 1 - a1
    assert n == xs.h0_tangent_p2(k)
    return SectionBasis(bundle=euler_tp2(), level=k, dimension=n, data=tuple(runs))


# ---------------------------------------------------------------------------
# Evaluation maps


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """z^m for m < n, shape (n, M), each row the one before times z."""
    pw = np.empty((n, len(z)), dtype=complex)
    pw[:1] = 1.0
    for m in range(1, n):
        np.multiply(pw[m - 1], z, out=pw[m])
    return pw


def _evaluate(basis: SectionBasis, runs, nodes) -> np.ndarray:
    """The runs at every node as the (M, N, r) transpose of an (N, r, M)
    array: per run, coeffs times a slice of the z_last powers of _powers
    times a row of the other coordinates' powers.  An overflow is left
    inf or nan, unwarned: every consumer names the node."""
    z = np.asarray(nodes)
    zs = z.T if z.ndim > 1 else z[None]  # one row per chart coordinate
    if len(zs) != len(runs[0][2]):
        raise ValueError(f"nodes with {len(zs)} coordinates for a chart on {basis.bundle.space_tag}")
    top = [1 + max(e[j] for _, _, e, _ in runs) for j in range(len(zs) - 1)]
    top.append(max(e[-1] + c.size for _, c, e, _ in runs))
    out = np.zeros((basis.dimension, basis.rank, len(z)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        pw = [_powers(zs[j], n) for j, n in enumerate(top)]
        for offset, coeffs, e, col in runs:
            dst = out[offset : offset + coeffs.size, col]
            np.multiply(coeffs[:, None], pw[-1][e[-1] : e[-1] + coeffs.size], out=dst)
            for p, m in zip(pw, e[:-1]):
                dst *= p[m]
    return out.transpose(2, 0, 1)


def q_field(basis: SectionBasis, nodes: np.ndarray) -> np.ndarray:
    """Evaluation matrices Q(x) for every node, shape (M, N, r), built
    node-last: `kernels.node_last` reads them back without a copy."""
    return _evaluate(basis, basis.data, nodes)


def dq_dz_field(basis: SectionBasis, nodes: np.ndarray) -> np.ndarray:
    """dQ/dz_last (dQ/dz on P^1), shape (M, N, r): q_field of the runs of
    m z_last^(m-1), each constant row left at 0."""
    runs = []
    for offset, coeffs, e, col in basis.data:
        s = int(e[-1] == 0)  # the constant row, if the run starts at one
        m = np.arange(s, coeffs.size) + e[-1]
        runs.append((offset + s, coeffs[s:] * m, e[:-1] + (e[-1] - 1 + s,), col))
    return _evaluate(basis, runs, nodes)


def h_ref_field(basis: SectionBasis, grid: QuadratureGrid) -> np.ndarray:
    """Reference metric h_ref(x) = Q(x)* Q(x) at every node, (M, r, r)."""
    return kernels.field(kernels.chart(basis, grid.nodes), grid).transpose(2, 0, 1)
