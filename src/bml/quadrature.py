"""Quadrature grids for the Fubini-Study volume on P^1 and P^2.

Both grids live on the dense affine chart (the complement has measure
zero) and use the torus moment map to push the Fubini-Study volume to a
product measure: uniform in the angles, uniform on [0,1) (P^1) or on the
standard 2-simplex (P^2) in the moment coordinates.  Radial directions
carry composite Gauss-Legendre panels, geometrically graded toward the
chart boundary so that log-type layers (which appear in log-det
integrands along strongly degenerate metrics) are still resolved to
better than 1e-6.

The total mass is Vol_L = 1 on P^1 and 1/2 on P^2, i.e. int omega^n/n!
for omega in c1(O(1)).

Each ring of the P^1 grid (every angle at one radius) is one orbit of
the torus rotating the chart coordinate, laid out as ``ring`` consecutive
nodes.  `QuadratureGrid.orbits` keeps one node per orbit with the orbit's
total weight; an integrand that the torus leaves invariant, a function
of |z| alone, integrates to the same value on it up to roundoff.  Only
the |Q|^2 column table of a diagonal form runs there (`donaldson._columns`
for a diagonal path, `balance._column_route` for a solve from a diagonal
start); `kernels.rings` reads the chart there and spreads it over every
ring by the section characters.  A quotient names a node by its index in the grid it was reduced
from, so a failure reads the same on either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

class InvalidResolution(ValueError):
    pass


class NonFiniteIntegrand(ValueError):
    def __init__(self, index):
        super().__init__(f"integrand not finite at node {index}")
        self.index = index


@cache
def gauss_rule(n: int):
    """The read-only n-node Gauss-Legendre rule on [-1, 1], once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _graded_panels(depth: int) -> list[float]:
    """Breakpoints of [0,1], geometrically refined toward both endpoints."""
    left = [2.0 ** (-j) for j in range(depth, 1, -1)]
    right = [1.0 - 2.0 ** (-j) for j in range(2, depth + 1)]
    return [0.0] + left + [0.5] + right + [1.0]


def _composite_gauss(npp: int, depth: int):
    x, w = gauss_rule(npp)
    bps = _graded_panels(depth)
    nodes, weights = [], []
    for a, b in zip(bps[:-1], bps[1:]):
        nodes.append(0.5 * (b - a) * (x + 1.0) + a)
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes on the affine chart plus positive weights summing to Vol_L.

    nodes: complex array of shape (M,) on P^1 or (M, 2) on P^2.
    ring: the number of consecutive nodes that make up one torus orbit;
        1 on a grid with no quotient.
    parent: on a quotient (`orbits`), the index of each node in the grid
        it was reduced from; None on a grid that was built.
    """

    space_tag: str
    nodes: np.ndarray
    weights: np.ndarray
    ring: int
    parent: Optional[np.ndarray] = None

    @property
    def volume(self) -> float:
        return 1.0 if self.space_tag == "P1" else 0.5

    def name(self, i: int) -> int:
        """Node i by its index in the grid this one was reduced from."""
        return i if self.parent is None else int(self.parent[i])

    def integrate(self, values):
        """Weighted sum of per-node values, over the last axis of a stack
        (a float for one row): one np.add.reduce, which sums each row of a
        C-ordered stack bit for bit as it sums that row alone."""
        values = np.asarray(values, dtype=float, order="C")
        if values.shape[-1:] != self.weights.shape:
            raise ValueError("integrand values must be one scalar per node")
        bad = ~np.isfinite(values)
        if bad.any():
            raise NonFiniteIntegrand(self.name(int(np.argmax(bad)) % len(self.weights)))
        total = np.add.reduce(values * self.weights, axis=-1)
        return float(total) if total.ndim == 0 else total

    @cached_property
    def orbits(self) -> "QuadratureGrid":
        """The torus-orbit quotient: per ring, the first node carrying
        the sum of the ring's weights, with ``parent`` the index of each
        kept node here; the grid itself when a ring is one node.  Held on
        the instance, computed once.

        It serves diagonal forms, which commute with the torus.  On P^1,
        Q(e^{i theta} z) = Lambda Q(z) and dQ/dz(e^{i theta} z) =
        e^{-i theta} Lambda dQ/dz(z), Lambda = diag(e^{i m theta}) over the
        section characters m, so h, c and a* h^{-1} a of a diagonal form
        (the M2 and M1 integrands, the curvature and the P-field's
        diagonal) depend on |z| alone.  Diagonal 1-PS (OnePS.rows) and
        T- or LM-solves from a diagonal H0 stay on them."""
        if self.ring == 1:
            return self
        starts = np.arange(0, len(self.nodes), self.ring)
        return QuadratureGrid(
            space_tag=self.space_tag,
            nodes=self.nodes[starts],
            weights=np.add.reduceat(self.weights, starts),
            ring=1,
            parent=starts,
        )


def build_grid_p1(n_radial: int = 8, n_angular: int = 32, depth: int = 20) -> QuadratureGrid:
    """Tensor grid on the chart of P^1.

    u = |z|^2/(1+|z|^2) carries ``n_radial`` Gauss-Legendre nodes per
    graded panel (2*depth panels), the angle carries the uniform
    trapezoid rule.  The FS measure is du dtheta / (2 pi), so weights
    are exact products and sum to 1.  A depth that puts a node at
    u = 1, the point at infinity, is refused (from 49 at n_radial 8).
    """
    if n_radial < 2 or n_angular < 4:
        raise InvalidResolution("need n_radial >= 2 and n_angular >= 4")
    u, wu = _composite_gauss(n_radial, depth)
    if (u >= 1.0).any():
        raise InvalidResolution(f"depth {depth}: a radial node rounds to u = 1, the point at infinity")
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    r = np.sqrt(u / (1.0 - u))
    z = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    w = np.repeat(wu, n_angular) / n_angular
    return QuadratureGrid(space_tag="P1", nodes=z, weights=w, ring=n_angular)


def build_grid_p2(n_simplex: int = 6, n_angular: int = 12, depth: int = 8) -> QuadratureGrid:
    """Tensor grid on the chart of P^2.

    The FS volume pushes forward to the uniform measure on the standard
    2-simplex under the torus moment map (v1, v2) = (|z1|^2, |z2|^2)/s
    with s = 1 + |z1|^2 + |z2|^2.  The simplex carries a collapsed
    (Duffy) Gauss product rule, symmetrized under v1 <-> v2 so that the
    node set is invariant under swapping the two chart coordinates; the
    angles carry the uniform trapezoid rule.  It records no ring: along
    a diagonal 1-PS at large t the M2 integrand on mixed columns spreads
    between the nodes of one orbit well above roundoff, and only the
    whole orbit averages that spread.  A depth that puts a node at
    infinity is refused (from 45 at n_simplex 6).
    """
    if n_simplex < 2 or n_angular < 4:
        raise InvalidResolution("need n_simplex >= 2 and n_angular >= 4")
    xi, wxi = _composite_gauss(n_simplex, depth)
    eta, weta = gauss_rule(n_simplex)
    eta = 0.5 * (eta + 1.0)
    weta = 0.5 * weta
    # Duffy map of the unit square onto the simplex, Jacobian (1 - xi).
    v1 = np.repeat(xi, n_simplex)
    v2 = (np.repeat(1.0 - xi, n_simplex)) * np.tile(eta, xi.size)
    wv = np.repeat(wxi * (1.0 - xi), n_simplex) * np.tile(weta, xi.size)
    # Symmetrize under v1 <-> v2 with half weights.
    v1s = np.concatenate([v1, v2])
    v2s = np.concatenate([v2, v1])
    wvs = 0.5 * np.concatenate([wv, wv])
    s = 1.0 - v1s - v2s
    if (s <= 0.0).any():
        raise InvalidResolution(f"depth {depth}: a simplex node rounds onto the edge at infinity")

    th = 2.0 * np.pi * np.arange(n_angular) / n_angular
    th1 = np.repeat(th, n_angular)
    th2 = np.tile(th, n_angular)
    r1 = np.sqrt(v1s / s)
    r2 = np.sqrt(v2s / s)
    z1 = (r1[:, None] * np.exp(1j * th1)[None, :]).ravel()
    z2 = (r2[:, None] * np.exp(1j * th2)[None, :]).ravel()
    nodes = np.stack([z1, z2], axis=-1)
    # Simplex weights sum to 1/2 = Vol_L; the torus factor is averaged.
    w = np.repeat(wvs, th1.size) / (n_angular * n_angular)
    return QuadratureGrid(space_tag="P2", nodes=nodes, weights=w, ring=1)

