"""Fubini-Study metrics and one-parameter degenerations.

A hermitian form H on the section space induces the fibre metric
h(x) = Q(x)* H Q(x).  A trace-free hermitian generator zeta drives the
path H(t) = e^{2 zeta t}; as t grows the path degenerates along the
weight filtration of zeta, whose exact invariants `exactsheaf` holds.
This module also provides the two pointwise operator identities that
make these paths subgeodesics: the pairwise commutation of the
sandwiched moment matrices and the factorization of the second
time-derivative as F*F >= 0.

Both identities are computed in the eigenframe of the generator,
zeta = V Lambda V*, from the square-root factor sigma(t) = e^{Lambda t} V*
of H(t) = sigma* sigma: with A = sigma Q, h = A*A and
Q* H(t) u^j Q = A* (2 Lambda)^j A for u = 2 zeta, so the form is never
assembled and nothing is inverted.  V* Q(x) is one product at one node,
a row permutation of Q(x) for a diagonal generator, and its row scaling
by e^{Lambda t} is A(t).  Since u is real,
A* u^2 A = (uA)* (uA): the Gram of the 1-jet J = [A | uA] holds all
three moment matrices as its blocks (`_jet_gram`).  `OnePS.form_at`,
which does assemble the form, loses positivity to roundoff once
e^{2 spread t} nears 1/eps; the factor does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import kernels
from .bundles import SectionBasis, q_field
from .quadrature import QuadratureGrid


class StepTooLarge(ValueError):
    pass


class NotPositiveDefinite(ValueError):
    pass


_CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class HermitianForm:
    """Positive-definite hermitian form on the section space."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if not np.isfinite(m).all():
            raise NotPositiveDefinite("form has non-finite entries")
        if np.abs(m - m.conj().T).max() > 1e-13 * max(1.0, np.abs(m).max()):
            raise ValueError("form must be hermitian")
        m = 0.5 * (m + m.conj().T)
        if (np.linalg.eigvalsh(m) if (m - np.diag(m.diagonal())).any() else m.diagonal().real).min() <= 0:
            raise NotPositiveDefinite("form must be positive definite")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class OnePS:
    """Trace-free hermitian generator with clustered eigenvalues.

    ``weights`` are the distinct eigenvalues in strictly decreasing
    order (ties merged at tolerance 1e-9); ``vectors[:, i]`` spans the
    eigenspaces, grouped so that columns ``slices[i]`` belong to
    ``weights[i]``.  Construction rescales the generator so its operator
    norm is at most one.  For a diagonal generator ``vectors`` is the
    permutation matrix of exact unit columns ``rows``, so that V* Q is
    Q[rows] exactly; ``rows`` marks such a generator for donaldson's
    column route and is None for any other.
    """

    generator: np.ndarray
    weights: tuple
    slices: tuple
    vectors: np.ndarray
    rows: Optional[np.ndarray] = None

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The weight of each eigenvector column, read-only and computed
        once per OnePS."""
        lam = np.concatenate(
            [np.full(s.stop - s.start, w) for w, s in zip(self.weights, self.slices)]
        )
        lam.setflags(write=False)
        return lam

    def form_at(self, t: float) -> HermitianForm:
        """The path form H(t) = e^{2 zeta t}.

        In a frame that mixes the weight groups H(t) stops being
        numerically positive definite once e^{2 spread t} nears 1/eps, and
        in any frame once e^{2 w t} leaves the float range: either is
        NotPositiveDefinite, naming t and 2 spread t.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            m = (self.vectors * np.exp(2.0 * self.eigenvalues * t)) @ self.vectors.conj().T
            m = 0.5 * (m + m.conj().T)
        try:
            return HermitianForm(m)
        except NotPositiveDefinite as err:
            spread = self.weights[0] - self.weights[-1]
            raise NotPositiveDefinite(
                f"H(t) is not numerically positive definite at t={t}: weight spread "
                f"{spread:.6g} gives 2*spread*t = {2.0 * spread * t:.4g} "
                f"(-ln eps = {-np.log(np.finfo(float).eps):.4g})"
            ) from err


def _diagonal_frame(m: np.ndarray):
    """For a diagonal m, (rows, values): the stable sort of its real
    diagonal in decreasing order as a row index (OnePS.rows), and the
    diagonal in that order; None for any other m."""
    if np.count_nonzero(m) == np.count_nonzero(m.diagonal()):
        rows = np.argsort(-m.diagonal().real, kind="stable")
        return rows, m.diagonal().real[rows]
    return None


def one_ps(zeta: np.ndarray) -> OnePS:
    zeta = np.asarray(zeta, dtype=complex)
    n = zeta.shape[0]
    if np.abs(zeta - zeta.conj().T).max() > 1e-12 * max(1.0, np.abs(zeta).max()):
        raise ValueError("generator must be hermitian")
    zeta = 0.5 * (zeta + zeta.conj().T)
    if abs(np.trace(zeta).real) > 1e-12 * n * max(1.0, np.abs(zeta).max()):
        raise ValueError("generator must be trace-free")
    diagonal = _diagonal_frame(zeta)
    # one decomposition; rescaling divides its eigenvalues, not zeta's frame
    lam, vec = (diagonal[1], None) if diagonal else np.linalg.eigh(zeta)
    norm = np.abs(lam).max()
    if norm > 1.0 + 1e-12:
        zeta, lam = zeta / norm, lam / norm
    if diagonal:  # the eigenframe is the stable sort permutation
        rows, vec = diagonal[0], np.eye(n, dtype=complex)[:, diagonal[0]]
    else:
        rows = None
        order = np.argsort(-lam)
        lam, vec = lam[order], vec[:, order]
    # cluster numerically equal eigenvalues into one weight
    weights, slices = [], []
    start = 0
    for i in range(1, n + 1):
        if i == n or lam[i] < lam[start] - _CLUSTER_TOL:
            weights.append(float(np.mean(lam[start:i])))
            slices.append(slice(start, i))
            start = i
    return OnePS(
        generator=zeta,
        weights=tuple(weights),
        slices=tuple(slices),
        vectors=vec,
        rows=rows,
    )


def two_step_one_ps(basis: SectionBasis, sub_columns, weights) -> OnePS:
    """Block-diagonal two-step generator: the first weight on the section
    block of the named summands, the second on the complement.

    ``sub_columns`` is a list of summand indices of a split bundle, each
    in [0, rank); their section rows (`SectionBasis.summand_rows`) get
    weight ``weights[0]``.
    """
    w1, w2 = float(weights[0]), float(weights[1])
    diag = np.full(basis.dimension, w2)
    for col in sub_columns:
        diag[basis.summand_rows(col)] = w1
    if abs(diag.sum()) > 1e-12 * basis.dimension:
        raise ValueError("weights are not trace-free for these block sizes")
    return one_ps(np.diag(diag))


def random_two_weight_ps(n: int, rng: np.random.Generator) -> OnePS:
    """Random trace-free generator with exactly two distinct weights and a
    Haar-random eigenframe; operator norm one."""
    if n < 2:
        raise ValueError(f"a two-weight generator needs at least 2 sections, got N = {n}")
    m = int(rng.integers(1, n))
    w1, w2 = n - m, -m
    scale = max(abs(w1), abs(w2))
    lam = np.concatenate([np.full(m, w1 / scale), np.full(n - m, w2 / scale)])
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _ = np.linalg.qr(g)
    return one_ps((u * lam) @ u.conj().T)


# ---------------------------------------------------------------------------
# Metric fields


def fs_metric(basis: SectionBasis, grid: QuadratureGrid, form: HermitianForm) -> np.ndarray:
    """Fibrewise metric h(x) = Q(x)* H Q(x), shape (M, r, r), checked
    positive by cholesky."""
    h = kernels.field(kernels.chart(basis, grid.nodes), grid, form.matrix)
    kernels.cholesky(h)
    return h.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# Subgeodesic operator identities, on A(t) = e^{Lambda t} V* Q(x)

# central finite-difference step of subgeodesic_residual's left side
FD_STEP = 1e-4


def _chart_at(basis: SectionBasis, ps: OnePS, x):
    """Q(x) and V* Q(x), both (N, r); call it under np.errstate."""
    q = q_field(basis, np.asarray([x]))[0]
    return q, ps.vectors.conj().T @ q


def _jet_gram(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """J* J for the 1-jet J = [a | u a] of a stack of (N, r) charts, u the
    real (N, 1) weights: its r x r blocks are a* a, a* u a and, as u is
    real, (u a)* (u a) = a* u^2 a; shape (..., 2r, 2r)."""
    j = np.concatenate([a, u * a], axis=-1)
    return j.conj().swapaxes(-1, -2) @ j


def commutator_residual(basis: SectionBasis, ps: OnePS, t: float, x) -> float:
    """Largest normalized commutator among the three sandwiched moment
    matrices Q* S Q, Q* S u Q, Q* S u^2 Q with S = e^{2 zeta t}, u = 2 zeta,
    regarded as endomorphisms in an h_ref-orthonormal frame at x.

    When the generator has at most two distinct weights every compression
    is an affine function of a single hermitian matrix, so the three
    commute exactly and the residual is floating noise; the same holds
    for generators acting as a constant scalar on each summand block of a
    split bundle.  Generators with three or more weights in generic
    position do not commute, and the residual measures the failure.
    The frame is the whitening W of h_ref = Q*Q (SingularGram if Q(x)
    drops rank, NonFiniteChart naming x if h_ref overflows); it differs
    from h_ref^{-1/2} by a unitary, which the normalized commutators do
    not see.  With C = e^{(Lambda - w_max) t} V* Q W*, the three matrices
    are the blocks of the 1-jet Gram of C; the three commutators come from
    two batched products and all six norms from one call.  The scalar
    e^{-w_max t}, which no normalized commutator sees, keeps every row
    factor at most one, so no time overflows.
    """
    u = 2.0 * ps.eigenvalues[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        q, vq = _chart_at(basis, ps, x)
        h_ref = q.conj().T @ q
    if not np.isfinite(h_ref).all():
        raise kernels.NonFiniteChart(0, x)
    w = kernels.whiten(h_ref[..., None])[0][..., 0]
    g = _jet_gram(np.exp((ps.eigenvalues - ps.weights[0]) * t)[:, None] * (vq @ w.conj().T), u)
    r = basis.rank
    blocks = g.reshape(2, r, 2, r).swapaxes(1, 2).reshape(4, r, r)  # m0, m1, m1*, m2
    a, b = blocks[[0, 0, 1]], blocks[[1, 3, 3]]
    norms = np.linalg.norm(np.concatenate([blocks, a @ b - b @ a]), axis=(1, 2))
    denom = norms[[0, 0, 1]] * norms[[1, 3, 3]]
    # a zero moment matrix commutes with everything; a NaN is kept
    return float(np.divide(norms[4:], denom, out=np.zeros(3), where=denom != 0).max())


def subgeodesic_residual(basis: SectionBasis, ps: OnePS, t: float, x):
    """Check d/dt (h^{-1} dh/dt) = F* F at a point.

    With A = sigma Q, h = A*A and G = h^{-1} A* u A, the algebraic
    identity gives h^{1/2} G' h^{-1/2} = F*F for F = (u A - A G) h^{-1/2};
    the left side is measured by central finite differences and the right
    side is assembled analytically, with the hermitian h^{1/2} and
    h^{-1/2} from one eigh of h.  The five times t, t +- s and t +- s/2
    are one (5, N, r) stack of A: h and A* u A are blocks of its batched
    1-jet Gram, and G at all five comes from one stacked solve.  A is
    taken as e^{(Lambda - w_max) t} V* Q, which keeps every row factor at
    most one: G, F and F*F do not see the scalar e^{-w_max t}, so no time
    overflows.  NonFiniteChart names x if a Gram overflows.  Returns
    (lhs, rhs, residual, min_eig_rhs); raises StepTooLarge when halving
    the step fails the second-order Richardson check.
    """
    u = 2.0 * ps.eigenvalues[:, None]
    shifted = ps.eigenvalues - ps.weights[0]  # Lambda - w_max <= 0
    steps = np.array([FD_STEP, FD_STEP / 2.0])
    times = t + np.array([0.0, *steps, *-steps])
    with np.errstate(over="ignore", invalid="ignore"):
        q, vq = _chart_at(basis, ps, x)
        a = np.exp(np.multiply.outer(times, shifted))[..., None] * vq
        gram = _jet_gram(a, u)
    if not np.isfinite(gram).all():
        raise kernels.NonFiniteChart(0, x)
    r = basis.rank
    g = np.linalg.solve(gram[:, :r, :r], gram[:, :r, r:])

    lam_h, v_h = np.linalg.eigh(gram[0, :r, :r])
    h_half = (v_h * np.sqrt(lam_h)) @ v_h.conj().T
    h_inv_half = (v_h / np.sqrt(lam_h)) @ v_h.conj().T
    f = (u * a[0] - a[0] @ g[0]) @ h_inv_half
    rhs = f.conj().T @ f

    # rows: the full step, then the half step
    lhs = h_half @ ((g[1:3] - g[3:5]) / (2.0 * steps)[:, None, None]) @ h_inv_half
    err_full, err_half = np.linalg.norm(lhs - rhs, axis=(1, 2))
    # Roundoff floor of the central difference: g sums terms of size
    # |Q|^2 |S| |u| / lam_min(h), the frame change h^{1/2} (.) h^{-1/2}
    # costs sqrt(cond h), and the quotient divides by the step.  Within a
    # few floors of it the error is noise and its decay says nothing.
    # Frobenius norms are unitarily invariant, and S is scaled as h is:
    # |S| = |e^{2 (Lambda - w_max) t}|.
    s_norm = np.linalg.norm(np.exp(2.0 * shifted * t))
    floor = (np.finfo(float).eps * np.linalg.norm(q) ** 2 * s_norm
             * np.linalg.norm(u) * np.sqrt(lam_h[-1] / lam_h[0]) / lam_h[0] / FD_STEP)
    # second-order FD: halving the step should cut the error ~4x
    if err_full > 32.0 * floor and err_half > 0.5 * err_full:
        raise StepTooLarge(
            f"no second-order decay: {err_full:.3e} -> {err_half:.3e}"
        )
    scale = 1.0 + np.linalg.norm(rhs)
    residual = float(err_half / scale)
    min_eig = float(np.linalg.eigvalsh(0.5 * (rhs + rhs.conj().T)).min())
    return lhs[1], rhs, residual, min_eig
