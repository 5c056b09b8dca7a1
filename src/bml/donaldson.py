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
is why the combined energy below reads M1 + mu(E) * M2 in terms of the
raw log-det.  Along a degeneration generated by a rational weight
matrix, the combined energy grows linearly with the exact rational slope
computed in exactsheaf, which is what the slope-fit helpers verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import bundles, kernels
from .bergman import HermitianForm, OnePS, StepTooLarge, fs_metric
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


def _honest_metric_eval(
    basis: SectionBasis, form: HermitianForm
) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator z -> g(z) of the honest bundle metric on E: the
    transpose inverse of Q* H Q, twisted down by (1+|z|^2)^level."""
    k = basis.level

    def g_eval(z: np.ndarray) -> np.ndarray:
        h = kernels.field(basis, z, form.matrix)
        tw = (1.0 + np.abs(z) ** 2) ** k
        return tw[:, None, None] * np.linalg.inv(np.swapaxes(h, -1, -2))

    return g_eval


def _fd4(f_plus1, f_minus1, f_plus2, f_minus2, step):
    return (8.0 * (f_plus1 - f_minus1) - (f_plus2 - f_minus2)) / (12.0 * step)


def curvature_field(
    basis: SectionBasis,
    grid: QuadratureGrid,
    form: HermitianForm,
    fd_step: float = 1e-3,
    method: str = "fd",
) -> np.ndarray:
    """Chern curvature density of the honest metric, shape (M, r, r).

    Normalized as a density against the quadrature measure:
    grid.integrate(trace of the result) equals the degree of E.  The
    default evaluates nested fourth-order central differences of
    A = g^{-1} dg/dz in the chart; method="analytic" uses the closed-form
    derivatives of Q instead and serves as an independent cross-check.
    """
    if grid.space_tag != "P1":
        raise NotImplementedError("curvature implemented on the P1 catalog")
    z = np.asarray(grid.nodes)
    if method == "analytic":
        f_dens = _curvature_analytic(basis, form, z)
    elif method == "fd":
        # chart-adapted step: the metric varies on the scale 1 + |z|, so a
        # relative step keeps both truncation and roundoff uniform
        step = fd_step * (1.0 + np.abs(z))
        f_dens = _curvature_fd(_honest_metric_eval(basis, form), z, step)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _fs_jacobian(z)[:, None, None] * f_dens


def _fs_jacobian(z: np.ndarray) -> np.ndarray:
    """Converts a dx dy density to a density against the FS measure."""
    return np.pi * (1.0 + np.abs(z) ** 2) ** 2


def _connection_fd(g_eval, z, step):
    sc = step[:, None, None]
    gs = {}
    for j in (-2, -1, 1, 2):
        gs[("x", j)] = g_eval(z + j * step)
        gs[("y", j)] = g_eval(z + 1j * j * step)
    gx = _fd4(gs[("x", 1)], gs[("x", -1)], gs[("x", 2)], gs[("x", -2)], sc)
    gy = _fd4(gs[("y", 1)], gs[("y", -1)], gs[("y", 2)], gs[("y", -2)], sc)
    gz = 0.5 * (gx - 1j * gy)
    return np.linalg.inv(g_eval(z)) @ gz


def _curvature_fd(g_eval, z, step):
    sc = step[:, None, None]
    a = {}
    for j in (-2, -1, 1, 2):
        a[("x", j)] = _connection_fd(g_eval, z + j * step, step)
        a[("y", j)] = _connection_fd(g_eval, z + 1j * j * step, step)
    ax = _fd4(a[("x", 1)], a[("x", -1)], a[("x", 2)], a[("x", -2)], sc)
    ay = _fd4(a[("y", 1)], a[("y", -1)], a[("y", 2)], a[("y", -2)], sc)
    azbar = 0.5 * (ax + 1j * ay)
    return -azbar / np.pi


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


def richardson_check_curvature(
    basis: SectionBasis,
    grid: QuadratureGrid,
    form: HermitianForm,
    fd_step: float,
    tol: float = 1e-4,
) -> float:
    """Compare the degree integral at the given step and half the step;
    raises StepTooLarge when they disagree beyond tol."""
    full = grid.integrate(
        np.trace(curvature_field(basis, grid, form, fd_step), axis1=1, axis2=2).real
    )
    half = grid.integrate(
        np.trace(curvature_field(basis, grid, form, fd_step / 2), axis1=1, axis2=2).real
    )
    if abs(full - half) > tol:
        raise StepTooLarge(f"degree integral moved {abs(full - half):.2e} on halving")
    return half


# ---------------------------------------------------------------------------
# Curvature pairing M1


def m1_rate(
    basis: SectionBasis,
    grid: QuadratureGrid,
    ps: OnePS,
    t: float,
    fd_step: float = 1e-3,
    method: str = "fd",
) -> float:
    """d/dt of the curvature-pairing energy at path time t:
    int_X tr( g^{-1} dg/dt . F[g] ).  With method="analytic" the
    curvature is evaluated in the same node blocks, from the same Q and h."""
    form = ps.form_at(t)
    hu = form.matrix @ (2.0 * ps.generator)
    z = grid.nodes
    f = None
    if method != "analytic":
        f = curvature_field(basis, grid, form, fd_step=fd_step, method=method)
    elif grid.space_tag != "P1":
        raise NotImplementedError("curvature implemented on the P1 catalog")
    integrand = np.empty(len(z))
    for sl, q in kernels.blocks(basis, z):
        h = kernels.fibre(kernels.sandwich(q, form.matrix, q), z, sl)
        ht_inv = np.linalg.inv(h.transpose(0, 2, 1))
        hdot = kernels.sandwich(q, hu, q)
        if f is None:
            f_sl = _curvature_block(basis, form, z[sl], q, ht_inv)
            f_sl *= _fs_jacobian(z[sl])[:, None, None]
        else:
            f_sl = f[sl]
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
    fd_step: float = 1e-3,
    method: str = "fd",
) -> np.ndarray:
    """M1 at each requested time, as the cumulative t-integral of the
    rate over a shared Gauss-Legendre subdivision of [0, max(ts)]."""
    ts = np.asarray(sorted(ts), dtype=float)
    x, w = np.polynomial.legendre.leggauss(max(4, n_path // max(1, len(ts))))
    out = []
    total = 0.0
    lo = 0.0
    for t in ts:
        if t > lo:
            nodes = 0.5 * (t - lo) * (x + 1.0) + lo
            rates = [
                m1_rate(basis, grid, ps, tv, fd_step=fd_step, method=method)
                for tv in nodes
            ]
            total += 0.5 * (t - lo) * float(np.dot(w, rates))
            lo = t
        out.append(total)
    return np.asarray(out)


def m1_don(
    basis: SectionBasis,
    grid: QuadratureGrid,
    ps: OnePS,
    t_end: float,
    n_path: int = 64,
    fd_step: float = 1e-3,
    method: str = "fd",
) -> float:
    """Curvature-pairing energy from time 0 to t_end, on max(4, n_path)
    Gauss nodes."""
    return float(m1_curve(basis, grid, ps, [t_end], n_path, fd_step, method)[0])


def m_don(
    basis: SectionBasis,
    grid: QuadratureGrid,
    ps: OnePS,
    t: float,
    mu_e: Fraction,
    n_path: int = 64,
    method: str = "fd",
) -> float:
    """Combined energy M1 - mu(E) * (honest log-det energy).

    The honest log-det energy is the negative of the raw m2_don (the raw
    sandwich is the dual metric), hence the plus sign below.
    """
    m1 = m1_don(basis, grid, ps, t, n_path=n_path, method=method)
    m2 = m2_along_path(basis, grid, ps, [t])[0]
    return m1 + float(mu_e) * m2


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
