"""Energy functionals along metric paths and their asymptotic slopes.

Two ingredients make up the Donaldson-type energy of a path of
Fubini-Study metrics: the log-det part

    M2(H) = (1/Vol) int log det( h_H h_ref^{-1} ) dmu,

which is frame-independent, and the curvature pairing

    M1 = int_0^T dt int_X tr( g^{-1} dg/dt . F[g] ),

evaluated on the honest bundle metrics g.  The raw sandwich
h = Q* H Q transforms as the metric on the dual bundle, so the honest
metric is the transpose inverse (twisted back from E(k) to E); the
log-det energy of the honest path is exactly -M2 of the raw path, which
is why the combined energy reads M1 + mu(E) * M2 in terms of the
raw log-det.  Along a degeneration generated by a rational weight
matrix, the combined energy grows linearly with the exact rational slope
computed in exactsheaf, which is what the slope-fit helpers verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import bundles, kernels
from .bergman import HermitianForm, OnePS
from .bundles import SectionBasis
from .quadrature import QuadratureGrid


class InsufficientSamples(ValueError):
    pass


# ---------------------------------------------------------------------------
# Log-det energy


def m2_don(basis: SectionBasis, grid: QuadratureGrid, form: HermitianForm) -> float:
    """Normalized log-det energy of h_H against h_ref."""
    ld = [kernels.logdet(kernels.field(basis, grid.nodes, mat)) for mat in (form.matrix, None)]
    return grid.integrate(ld[0] - ld[1]) / grid.volume


def m2_along_path(
    basis: SectionBasis, grid: QuadratureGrid, ps: OnePS, ts: Sequence[float]
) -> np.ndarray:
    """M2 sampled at the given path times, sharing the Q evaluations.

    With V the eigenvectors of the generator, grouped by its distinct
    weights w_d, and G_d = (V_d* Q)* (V_d* Q) the r x r Gram block of
    weight group d, the path metric and the reference are

        h(t) = sum_d e^{2 w_d t} G_d,    h_ref = Q*Q = sum_d G_d

    (V is unitary).  Per node block the D Gram blocks are formed once
    and every h(t_j), with h_ref as t_0 = 0, comes from the (D, T+1)
    table e^{2 w_d t_j} in one GEMM per matrix entry, and one Cholesky
    pass gives all their log-dets.  Each G_d is bounded by h_ref, so a
    block overflows only where the reference or a path metric does:
    NonFiniteChart names it.
    """
    times = np.concatenate([[0.0], np.asarray(ts, dtype=float).ravel()])
    with np.errstate(over="ignore"):
        table = np.exp(2.0 * np.outer(ps.weights, times))
    vh = ps.vectors.conj().T
    vals = np.empty((len(times), len(grid.nodes)))
    for sl, q in kernels.blocks(basis, grid.nodes):
        vq = kernels.act(vh, q)
        grams = np.stack([kernels.pair(vq[s], vq[s]) for s in ps.slices], axis=2)
        with np.errstate(over="ignore", invalid="ignore"):
            h = table.T @ grams  # (r, r, T+1, B)
        vals[:, sl] = kernels.logdet(kernels.finite(h, grid.nodes, sl))
    return np.asarray([grid.integrate(v - vals[0]) / grid.volume for v in vals[1:]])


# ---------------------------------------------------------------------------
# Curvature


def _only_analytic(method: str) -> None:
    # The curvature has one, closed-form path; the keyword stays only
    # because the benchmark workloads still pass method="analytic".
    if method != "analytic":
        raise ValueError(f"unknown method {method!r}: only 'analytic' exists")


def curvature_field(
    basis: SectionBasis,
    grid: QuadratureGrid,
    form: HermitianForm,
    method: str = "analytic",
) -> np.ndarray:
    """Chern curvature density of the honest metric, shape (M, r, r), in
    closed form from the holomorphic derivatives of Q (see _curvature_frame).

    h, a and c are the jet blocks of _path_jets for the square root
    F = Lambda^{1/2} V* of H = V Lambda V* as one weight group (F*F = H).

    Normalized as a density against the quadrature measure:
    grid.integrate(trace of the result) equals the degree of E.
    """
    _only_analytic(method)
    lam, v = np.linalg.eigh(form.matrix)
    z = np.asarray(grid.nodes)
    f_t = np.empty((basis.rank, basis.rank, len(z)), dtype=complex)
    for sl, stack in _path_jets(basis, grid, np.sqrt(lam)[:, None] * v.conj().T, (slice(None),)):
        w, l, k = _curvature_frame(basis.level, z[sl], *kernels.finite(stack[0], z, sl))
        f_t[..., sl] = kernels.mul(kernels.mul(kernels.ct(w), k), kernels.ct(l))
        f_t[..., sl] *= (1.0 + np.abs(z[sl]) ** 2) ** 2
    return f_t.transpose(2, 1, 0)


def _curvature_frame(level: int, z, h, a, c):
    """The curvature of the honest metric on one node block, in the frame
    that whitens h, from (r, r, B) stacks of h = Q* H Q, a = Q* H dQ and
    c = dQ* H dQ.

    The honest metric is g = (1 + |z|^2)^k (h^T)^{-1}; its curvature
    density against dx dy is F = (h^{-1} S - fs)^T / pi with the Schur
    complement S = c - a* h^{-1} a and fs = k / (1 + |z|^2)^2.  With the
    Cholesky whitening W = L^{-1}, h = L L*, this returns (W, L, K) for
    the hermitian

        K = W S W* - fs,    S = c - (W a)* (W a),    pi F^T = W* K L*,

    so no inverse of h is formed and (h^T)^{-1} = conj(W* W) exactly.
    """
    w, l = kernels.whiten(h)
    wa = kernels.mul(w, a)
    k = kernels.mul(kernels.mul(w, c - kernels.mul(kernels.ct(wa), wa)), kernels.ct(w))
    fs = level / (1.0 + np.abs(z) ** 2) ** 2
    for i in range(len(k)):
        k[i, i] -= fs
    return w, l, k


# ---------------------------------------------------------------------------
# Curvature pairing M1


def _path_jets(basis: SectionBasis, grid: QuadratureGrid, rotation, slices) -> list:
    """The per-weight 1-jet blocks of the chart, per node block, for the
    rows ``slices`` of a ``rotation`` R.

    Along a 1-PS R = V* and the slices are its weight groups: with V_d
    the eigenvectors of weight w_d, B_d = V_d* Q and D_d = V_d* dQ/dz,
    the blocks G_d = B_d* B_d, A_d = B_d* D_d and C_d = D_d* D_d give
    every factor of the M1 integrand at path time t:

        h = sum_d e^{2 w_d t} G_d,   hdot = sum_d 2 w_d e^{2 w_d t} G_d,
        a = sum_d e^{2 w_d t} A_d,   c = sum_d e^{2 w_d t} C_d.

    Returns (slice, stack) per node block, the stack of shape
    (D, 3, r, r, B) holding G_d, A_d, C_d with the node index last.
    """
    if grid.space_tag != "P1":
        raise NotImplementedError("curvature implemented on the P1 catalog")
    z = grid.nodes
    r = basis.rank
    jets = []
    for sl, q in kernels.blocks(basis, z):
        vq = kernels.act(rotation, q)
        vd = kernels.act(rotation, kernels.node_last(bundles.dq_dz_field(basis, z[sl])))
        stack = np.empty((len(slices), 3, r, r, q.shape[-1]), dtype=complex)
        for i, s in enumerate(slices):
            b, db = vq[s], vd[s]
            stack[i, 0] = kernels.pair(b, b)
            stack[i, 1] = kernels.pair(b, db)
            stack[i, 2] = kernels.pair(db, db)
        jets.append((sl, stack))
    return jets


def m1_rate(
    basis: SectionBasis, grid: QuadratureGrid, ps: OnePS, t: float, *, jets=None
) -> float:
    """d/dt of the curvature-pairing energy at path time t:
    int_X tr( g^{-1} dg/dt . F[g] ) on the honest metric g.

    ``jets`` holds the blocks of _path_jets when the caller keeps them;
    per node block only a D-term combination and the whitened r x r
    algebra remain.  Since g^{-1} dg/dt = -(h^{-1} hdot)^T, the integrand
    is -(1 + |z|^2)^2 tr(X K) with X = W hdot W* and K from
    _curvature_frame.
    """
    if jets is None:
        jets = _path_jets(basis, grid, ps.vectors.conj().T, ps.slices)
    weights = np.asarray(ps.weights)
    with np.errstate(over="ignore"):
        e = np.exp(2.0 * weights * t)
    e_dot = 2.0 * weights * e
    integrand = np.empty(len(grid.nodes))
    for sl, stack in jets:
        integrand[sl] = _rate_block(basis.level, grid.nodes, sl, stack, e, e_dot)
    return grid.integrate(integrand)


def _rate_block(level: int, z, sl: slice, stack, e, e_dot):
    """The m1_rate integrand on one node block of jets, for the time
    factors e = e^{2 w_d t} and e_dot = 2 w_d e^{2 w_d t}."""
    n_w, _, r, _, b = stack.shape
    with np.errstate(over="ignore", invalid="ignore"):
        hac = kernels.finite((e @ stack.reshape(n_w, -1)).reshape(3, r, r, b), z, sl)
        hdot = (e_dot @ stack[:, 0].reshape(n_w, -1)).reshape(r, r, b)
    w, _, k = _curvature_frame(level, z[sl], *hac)
    del hac
    x = kernels.mul(kernels.mul(w, hdot), kernels.ct(w))
    return -(1.0 + np.abs(z[sl]) ** 2) ** 2 * kernels.trace_mul(x, k).real


def m1_curve(
    basis: SectionBasis,
    grid: QuadratureGrid,
    ps: OnePS,
    ts: Sequence[float],
    n_path: int = 64,
    method: str = "analytic",
) -> np.ndarray:
    """M1 at each requested time, in the order given, as the cumulative
    t-integral of the rate over a shared Gauss-Legendre subdivision of
    [0, max(ts)] at the sorted times, n_path // (distinct times) nodes per
    segment.  The jet blocks are formed once and dropped on return."""
    _only_analytic(method)
    ts = np.asarray(ts, dtype=float).ravel()
    if (ts < 0).any():
        raise ValueError("path time must be nonnegative")
    x, w = np.polynomial.legendre.leggauss(max(4, n_path // max(1, len(np.unique(ts)))))
    jets = _path_jets(basis, grid, ps.vectors.conj().T, ps.slices) if (ts > 0).any() else None
    out = np.empty(len(ts))
    total = 0.0
    lo = 0.0
    for i in np.argsort(ts, kind="stable"):
        t = ts[i]
        if t > lo:
            nodes = 0.5 * (t - lo) * (x + 1.0) + lo
            rates = [m1_rate(basis, grid, ps, tv, jets=jets) for tv in nodes]
            total += 0.5 * (t - lo) * float(np.dot(w, rates))
            lo = t
        out[i] = total
    return out


# ---------------------------------------------------------------------------
# Slope fitting


@dataclass(frozen=True)
class SlopeFit:
    times: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    residual: float
    predicted: Optional[Fraction] = None

    @property
    def relative_error(self) -> Optional[float]:
        if self.predicted is None or self.predicted == 0:
            return None
        return abs(self.slope - float(self.predicted)) / abs(float(self.predicted))


def asymptotic_slope_fit(
    times, values, t_min: float, predicted: Optional[Fraction] = None
) -> SlopeFit:
    """Affine least squares on the tail window t >= t_min."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = times >= t_min
    if sel.sum() < 5:
        raise InsufficientSamples("need at least 5 tail samples")
    tt, vv = times[sel], values[sel]
    a = np.stack([tt, np.ones_like(tt)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(a, vv, rcond=None)
    fitted = a @ coef
    return SlopeFit(
        times=tt,
        values=vv,
        slope=float(coef[0]),
        intercept=float(coef[1]),
        residual=float(np.sqrt(np.mean((fitted - vv) ** 2))),
        predicted=predicted,
    )
