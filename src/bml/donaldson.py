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
from .bergman import HermitianForm, OnePS, fs_metric
from .bundles import SectionBasis, h_ref_field
from .quadrature import QuadratureGrid


class InsufficientSamples(ValueError):
    pass


# ---------------------------------------------------------------------------
# Log-det energy


def m2_don(basis: SectionBasis, grid: QuadratureGrid, form: HermitianForm) -> float:
    """Normalized log-det energy of h_H against h_ref."""
    h = fs_metric(basis, grid, form).values
    href = h_ref_field(basis, grid)
    return grid.integrate(kernels.logdet(h) - kernels.logdet(href)) / grid.volume


def m2_along_path(
    basis: SectionBasis, grid: QuadratureGrid, ps: OnePS, ts: Sequence[float]
) -> np.ndarray:
    """M2 sampled at the given path times, sharing the Q evaluations.

    With V the eigenvectors of the generator, grouped by its distinct
    weights w_d, and G_d = (V_d* Q)* (V_d* Q) the r x r Gram block of
    weight group d, the path metric and the reference are

        h(t) = sum_d e^{2 w_d t} G_d,    h_ref = Q*Q = sum_d G_d

    (V is unitary).  Per node block the D Gram blocks are formed once
    and every h(t_j), with h_ref as t_0 = 0, comes from one GEMM against
    the (D, T+1) table e^{2 w_d t_j}; only the log-dets remain per time.
    Each G_d is bounded by h_ref, so a block overflows only where the
    reference or a path metric does, and NonFiniteChart names the node.
    """
    times = np.concatenate([[0.0], np.asarray(ts, dtype=float).ravel()])
    with np.errstate(over="ignore"):
        table = np.exp(2.0 * np.outer(ps.weights, times))
    vh = ps.vectors.conj().T
    r = basis.rank
    vals = np.empty((len(times), len(grid.nodes)))
    for sl, q in kernels.blocks(basis, grid.nodes):
        vq = kernels.act(vh, q)
        grams = np.stack([kernels.pair(vq[:, :, s], vq[:, :, s]) for s in ps.slices])
        with np.errstate(over="ignore", invalid="ignore"):
            h = (table.T @ grams.reshape(len(ps.slices), -1)).reshape(len(times), -1, r, r)
        for j in range(len(times)):
            vals[j, sl] = kernels.logdet(kernels.fibre(h[j], grid.nodes, sl))
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
    closed form from the holomorphic derivatives of Q (see _curvature_block).

    Normalized as a density against the quadrature measure:
    grid.integrate(trace of the result) equals the degree of E.
    """
    _only_analytic(method)
    if grid.space_tag != "P1":
        raise NotImplementedError("curvature implemented on the P1 catalog")
    z = np.asarray(grid.nodes)
    return _fs_jacobian(z)[:, None, None] * _curvature_analytic(basis, form, z)


def _fs_jacobian(z: np.ndarray) -> np.ndarray:
    """Converts a dx dy density to a density against the FS measure."""
    return np.pi * (1.0 + np.abs(z) ** 2) ** 2


def _curvature_analytic(basis: SectionBasis, form: HermitianForm, z: np.ndarray):
    """Closed-form curvature density via the holomorphic derivatives of Q,
    block by block (see _curvature_block)."""
    out = np.empty((len(z), basis.rank, basis.rank), dtype=complex)
    for sl, q in kernels.blocks(basis, z):
        h = kernels.fibre(kernels.sandwich(q, form.matrix, q), z, sl)
        out[sl] = _curvature_block(basis, form, z[sl], q, np.linalg.inv(h.transpose(0, 2, 1)))
    return out


def _curvature_block(basis: SectionBasis, form: HermitianForm, z, q, ht_inv):
    """Curvature density on one node block from the chart values q there
    and (h^T)^{-1}, h = Q* H Q.

    With a = Q* H dQ and c = dQ* H dQ, the curvature term of the honest
    metric is (c - a* h^{-1} a)^T (h^T)^{-1}.  The difference cancels
    heavily at large |z|; inverting h^T, rather than transposing h^{-1},
    measured 10-100x closer to an extended-precision reference at k = 20.
    """
    d = bundles.dq_dz_field(basis, z)
    hd = kernels.act(form.matrix, d)
    a_t = kernels.pair(q.transpose(0, 2, 1), hd).transpose(0, 2, 1)
    c_t = kernels.pair(d.transpose(0, 2, 1), hd).transpose(0, 2, 1)
    term = (c_t - a_t @ ht_inv @ a_t.conj().transpose(0, 2, 1)) @ ht_inv
    fs_part = basis.level / (1.0 + np.abs(z) ** 2) ** 2
    return (term - fs_part[:, None, None] * np.eye(basis.rank)) / np.pi


# ---------------------------------------------------------------------------
# Curvature pairing M1


def m1_rate(basis: SectionBasis, grid: QuadratureGrid, ps: OnePS, t: float) -> float:
    """d/dt of the curvature-pairing energy at path time t:
    int_X tr( g^{-1} dg/dt . F[g] ), with the curvature evaluated in the
    same node blocks, from the same Q and h."""
    if grid.space_tag != "P1":
        raise NotImplementedError("curvature implemented on the P1 catalog")
    form = ps.form_at(t)
    hu = form.matrix @ (2.0 * ps.generator)
    z = grid.nodes
    integrand = np.empty(len(z))
    for sl, q in kernels.blocks(basis, z):
        h = kernels.fibre(kernels.sandwich(q, form.matrix, q), z, sl)
        ht_inv = np.linalg.inv(h.transpose(0, 2, 1))
        hdot = kernels.sandwich(q, hu, q)
        f_sl = _curvature_block(basis, form, z[sl], q, ht_inv)
        f_sl *= _fs_jacobian(z[sl])[:, None, None]
        # honest-path logarithmic derivative: g^{-1} dg/dt = -(h^{-1} hdot)^T,
        # so tr(g^{-1} dg/dt F) = -tr(h^{-1} hdot F^T), h^{-1} = (ht_inv)^T
        integrand[sl] = -np.einsum("mij,mij->m", ht_inv.transpose(0, 2, 1) @ hdot, f_sl).real
    return grid.integrate(integrand)


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
    [0, max(ts)] at the sorted times."""
    _only_analytic(method)
    ts = np.asarray(ts, dtype=float).ravel()
    if (ts < 0).any():
        raise ValueError("path time must be nonnegative")
    x, w = np.polynomial.legendre.leggauss(max(4, n_path // max(1, len(ts))))
    out = np.empty(len(ts))
    total = 0.0
    lo = 0.0
    for i in np.argsort(ts, kind="stable"):
        t = ts[i]
        if t > lo:
            nodes = 0.5 * (t - lo) * (x + 1.0) + lo
            rates = [m1_rate(basis, grid, ps, tv) for tv in nodes]
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
