"""Fubini-Study metrics, one-parameter degenerations and their filtrations.

A hermitian form H on the section space induces the fibre metric
h(x) = Q(x)* H Q(x).  A trace-free hermitian generator zeta drives the
path H(t) = e^{2 zeta t}; as t grows the path degenerates along the
weight filtration of zeta, whose generic graded fibre ranks
weight_filtration measures.  This module also provides the two
pointwise operator identities that make these paths subgeodesics: the
pairwise commutation of the sandwiched moment matrices and the
factorization of the second time-derivative as F*F >= 0.

The path metric and both identities are computed in the eigenframe of
the generator, zeta = V Lambda V*, from the square-root factor
sigma(t) = e^{Lambda t} V* of H(t) = sigma* sigma: with A = sigma Q,
h = A*A and Q* H(t) u^j Q = A* (2 Lambda)^j A for u = 2 zeta, so the
form is never assembled and nothing is inverted.  `OnePS.form_at`, which
does assemble it, loses positivity to roundoff once e^{2 spread t}
nears 1/eps; the factor does not.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import kernels
from .bundles import SectionBasis, q_field
from .quadrature import QuadratureGrid


class DegenerateSamples(ValueError):
    pass


class StepTooLarge(ValueError):
    pass


class NotPositiveDefinite(ValueError):
    pass


_CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class HermitianForm:
    """Positive-definite hermitian form on the section space."""

    matrix: np.ndarray
    provenance: str = "explicit"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if np.abs(m - m.conj().T).max() > 1e-13 * max(1.0, np.abs(m).max()):
            raise ValueError("form must be hermitian")
        m = 0.5 * (m + m.conj().T)
        if np.linalg.eigvalsh(m).min() <= 0:
            raise NotPositiveDefinite("form must be positive definite")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def identity_form(n: int) -> HermitianForm:
    return HermitianForm(np.eye(n), provenance="identity")


@dataclass(frozen=True)
class OnePS:
    """Trace-free hermitian generator with clustered eigenvalues.

    ``weights`` are the distinct eigenvalues in strictly decreasing
    order (ties merged at tolerance 1e-9); ``vectors[:, i]`` spans the
    eigenspaces, grouped so that columns ``slices[i]`` belong to
    ``weights[i]``.  Construction rescales the generator so its operator
    norm is at most one and records the factor.
    """

    generator: np.ndarray
    weights: tuple
    slices: tuple
    vectors: np.ndarray
    scale: float = 1.0

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """The weight of each eigenvector column."""
        return np.concatenate(
            [np.full(s.stop - s.start, w) for w, s in zip(self.weights, self.slices)]
        )

    def form_at(self, t: float) -> HermitianForm:
        """The path form H(t) = e^{2 zeta t}.

        In a frame that mixes the weight groups H(t) stops being
        numerically positive definite once e^{2 spread t} nears 1/eps.
        """
        m = (self.vectors * np.exp(2.0 * self.eigenvalues * t)) @ self.vectors.conj().T
        try:
            return HermitianForm(0.5 * (m + m.conj().T), provenance=f"exp(t={t})")
        except NotPositiveDefinite as err:
            spread = self.weights[0] - self.weights[-1]
            raise NotPositiveDefinite(
                f"H(t) is not numerically positive definite at t={t}: weight spread "
                f"{spread:.6g} gives 2*spread*t = {2.0 * spread * t:.4g} "
                f"(-ln eps = {-np.log(np.finfo(float).eps):.4g})"
            ) from err

    def flag_basis(self, i: int) -> np.ndarray:
        """Columns spanning the flag step of the first i+1 weight groups."""
        return self.vectors[:, : self.slices[i].stop]


def one_ps(zeta: np.ndarray, normalize: bool = True) -> OnePS:
    zeta = np.asarray(zeta, dtype=complex)
    n = zeta.shape[0]
    if np.abs(zeta - zeta.conj().T).max() > 1e-12 * max(1.0, np.abs(zeta).max()):
        raise ValueError("generator must be hermitian")
    zeta = 0.5 * (zeta + zeta.conj().T)
    if abs(np.trace(zeta).real) > 1e-12 * n * max(1.0, np.abs(zeta).max()):
        raise ValueError("generator must be trace-free")
    scale = 1.0
    norm = np.abs(np.linalg.eigvalsh(zeta)).max() if np.abs(zeta).max() > 0 else 0.0
    if normalize and norm > 1.0 + 1e-12:
        scale = norm
        zeta = zeta / norm
    lam, vec = np.linalg.eigh(zeta)
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
        scale=scale,
    )


def two_step_one_ps(basis: SectionBasis, sub_columns, weights) -> OnePS:
    """Block-diagonal two-step generator: the first weight on the section
    block of the named summands, the second on the complement.

    ``sub_columns`` is a list of summand indices of a split bundle; the
    corresponding monomial blocks of the deterministic basis ordering
    get weight ``weights[0]``.
    """
    if basis.bundle.kind != "split_p1":
        raise ValueError("two-step generators are defined for split bundles")
    w1, w2 = float(weights[0]), float(weights[1])
    diag = np.full(basis.dimension, w2)
    for col in sub_columns:
        offset, coeffs = basis.data[col]
        diag[offset : offset + coeffs.size] = w1
    if abs(diag.sum()) > 1e-12 * basis.dimension:
        raise ValueError("weights are not trace-free for these block sizes")
    return one_ps(np.diag(diag))


def random_two_weight_ps(n: int, rng: np.random.Generator) -> OnePS:
    """Random trace-free generator with exactly two distinct weights and a
    Haar-random eigenframe; operator norm one."""
    m = int(rng.integers(1, n))
    w1, w2 = n - m, -m
    scale = max(abs(w1), abs(w2))
    lam = np.concatenate([np.full(m, w1 / scale), np.full(n - m, w2 / scale)])
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _ = np.linalg.qr(g)
    return one_ps((u * lam) @ u.conj().T)


# ---------------------------------------------------------------------------
# Metric fields


@dataclass(frozen=True)
class MetricField:
    """Per-node positive hermitian fibre matrices on a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray  # (M, r, r)

    @property
    def rank(self) -> int:
        return self.values.shape[-1]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.values)[:, 0].min())


def fs_metric(basis: SectionBasis, grid: QuadratureGrid, form: HermitianForm) -> MetricField:
    """Fibrewise metric h(x) = Q(x)* H Q(x), checked positive by cholesky."""
    h = kernels.field(basis, grid.nodes, form.matrix)
    kernels.cholesky(h)
    return MetricField(grid=grid, values=h.transpose(2, 0, 1))


def _root(ps: OnePS, t: float) -> np.ndarray:
    """sigma(t) = e^{Lambda t} V*, so that H(t) = sigma* sigma and
    sigma u = 2 Lambda sigma for u = 2 zeta."""
    return np.exp(ps.eigenvalues * t)[:, None] * ps.vectors.conj().T


def bergman_path(basis: SectionBasis, grid: QuadratureGrid, ps: OnePS, t: float) -> MetricField:
    """Metric along the degeneration path at time t.

    Assembled from the square-root factor sigma(t) Q (see _root) so it is
    positive semidefinite by construction even when the weight spread
    makes the form e^{2 zeta t} numerically singular; cholesky checks it.
    """
    if t < 0:
        raise ValueError("path time must be nonnegative")
    h = kernels.field(basis, grid.nodes, factor=_root(ps, t))
    kernels.cholesky(h)
    return MetricField(grid=grid, values=h.transpose(2, 0, 1))


# ---------------------------------------------------------------------------
# Weight filtrations


def weight_filtration(
    basis: SectionBasis,
    ps: OnePS,
    sample_points,
    svd_tol: float = 1e-8,
):
    """Generic fibre ranks of the flag steps of the weight filtration.

    For each weight level the sections in the flag step are evaluated at
    the sample points; the rank of the spanned fibre subspace is the max
    numeric rank over samples.  Returns (ranks, v_dims, surviving), where
    surviving lists the levels whose graded rank is positive.
    """
    pts = np.asarray(sample_points)
    if pts.shape[0] < 5:
        raise ValueError("need at least a handful of sample points")
    q = q_field(basis, pts)  # (M, N, r)
    ranks = []
    for i in range(len(ps.weights)):
        # singular values of the fibre images of the flag sections
        s = np.linalg.svd(q.transpose(0, 2, 1) @ ps.flag_basis(i), compute_uv=False)
        per_sample = (s > svd_tol * np.maximum(s[:, :1], 1e-300)).sum(axis=1)
        top = int(per_sample.max())
        if (per_sample == top).sum() < 0.25 * len(per_sample):
            raise DegenerateSamples(
                f"generic rank attained at too few samples for level {i}"
            )
        ranks.append(top)
    v_dims = [s.stop for s in ps.slices]
    graded = [ranks[0]] + [b - a for a, b in zip(ranks, ranks[1:])]
    surviving = tuple(i for i, g in enumerate(graded) if g > 0)
    return ranks, v_dims, surviving


# ---------------------------------------------------------------------------
# Subgeodesic operator identities, on A(t) = sigma(t) Q(x) (see _root)


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
    drops rank); it differs from h_ref^{-1/2} by a unitary, which the
    normalized commutators do not see.
    """
    q_x = q_field(basis, np.asarray([x]))[0]
    w = kernels.whiten((q_x.conj().T @ q_x)[..., None])[0][..., 0]
    c = _root(ps, t) @ q_x @ w.conj().T
    u = 2.0 * ps.eigenvalues[:, None]
    mats = [c.conj().T @ c, c.conj().T @ (u * c), c.conj().T @ (u * u * c)]
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            a, b = mats[i], mats[j]
            denom = np.linalg.norm(a) * np.linalg.norm(b)
            if denom == 0:
                continue
            worst = max(worst, np.linalg.norm(a @ b - b @ a) / denom)
    return worst


def subgeodesic_residual(
    basis: SectionBasis,
    ps: OnePS,
    t: float,
    x,
    fd_step: float = 1e-4,
):
    """Check d/dt (h^{-1} dh/dt) = F* F at a point.

    With A = sigma Q, h = A*A and G = h^{-1} A* u A, the algebraic
    identity gives h^{1/2} G' h^{-1/2} = F*F for F = (u A - A G) h^{-1/2};
    the left side is measured by central finite differences and the right
    side is assembled analytically, with the hermitian h^{1/2} and
    h^{-1/2} from one eigh of h.  Returns (lhs, rhs, residual,
    min_eig_rhs); raises StepTooLarge when halving the step fails the
    second-order Richardson check.
    """
    q_x = q_field(basis, np.asarray([x]))[0]
    u = 2.0 * ps.eigenvalues[:, None]

    def a_g(tv: float):
        a = _root(ps, tv) @ q_x
        return a, np.linalg.solve(a.conj().T @ a, a.conj().T @ (u * a))

    def lhs_of(step: float) -> np.ndarray:
        gdot = (a_g(t + step)[1] - a_g(t - step)[1]) / (2.0 * step)
        return h_half @ gdot @ h_inv_half

    a, g = a_g(t)
    lam_h, v_h = np.linalg.eigh(a.conj().T @ a)
    h_half = (v_h * np.sqrt(lam_h)) @ v_h.conj().T
    h_inv_half = (v_h / np.sqrt(lam_h)) @ v_h.conj().T
    f = (u * a - a @ g) @ h_inv_half
    rhs = f.conj().T @ f

    lhs = lhs_of(fd_step)
    lhs_half = lhs_of(fd_step / 2.0)
    err_full = np.linalg.norm(lhs - rhs)
    err_half = np.linalg.norm(lhs_half - rhs)
    # Roundoff floor of the central difference: g sums terms of size
    # |Q|^2 |S| |u| / lam_min(h), the frame change h^{1/2} (.) h^{-1/2}
    # costs sqrt(cond h), and the quotient divides by the step.  Within a
    # few floors of it the error is noise and its decay says nothing.
    # Frobenius norms are unitarily invariant: |S| = |e^{2 Lambda t}|.
    s_norm = np.linalg.norm(np.exp(2.0 * ps.eigenvalues * t))
    floor = (np.finfo(float).eps * np.linalg.norm(q_x) ** 2 * s_norm
             * np.linalg.norm(u) * np.sqrt(lam_h[-1] / lam_h[0]) / lam_h[0] / fd_step)
    # second-order FD: halving the step should cut the error ~4x
    if err_full > 32.0 * floor and err_half > 0.5 * err_full:
        raise StepTooLarge(
            f"no second-order decay: {err_full:.3e} -> {err_half:.3e}"
        )
    scale = 1.0 + np.linalg.norm(rhs)
    residual = float(err_half / scale)
    min_eig = float(np.linalg.eigvalsh(0.5 * (rhs + rhs.conj().T)).min())
    return lhs_half, rhs, residual, min_eig
