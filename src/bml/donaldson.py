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

Along a diagonal 1-PS on P^1 (the Bergman 1-PS of a filtration of a split
bundle) every pointwise term of M2 and M1 depends on |z| alone, so
m2_along_path, m1_curve and m1_rate run on one node per torus orbit
(_orbit_grid, which also places the balance solvers), and so does the
curvature of a diagonal form, repeated over each ring.  Every other
1-PS or form, and P^2, keep the whole grid.  A failure on the quotient
names its node in the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import bundles, kernels
from .bergman import HermitianForm, OnePS, _diagonal_frame, _frame, _groups, one_ps
from .bundles import SectionBasis
from .quadrature import QuadratureGrid, gauss_rule


class InsufficientSamples(ValueError):
    pass


def _orbit_grid(grid: QuadratureGrid, invariant: bool) -> QuadratureGrid:
    """The node set of the integrals and fields of forms that are all
    ``invariant``: grid.orbits, else grid.  On P^1, Q(e^{i theta} z) =
    Lambda Q(z) and dQ/dz(e^{i theta} z) = e^{-i theta} Lambda dQ/dz(z)
    for Lambda = diag(e^{i m theta}), m the section characters.  A form
    with H_ij = 0 wherever m_i != m_j commutes with Lambda: h, c and
    a* h^{-1} a, so the M2 and M1 integrands and the curvature, depend
    on |z| alone, and P = Q h^{-1} Q* at e^{i theta} z is Lambda P(z)
    Lambda*, whose ring average is one node's value with those entries
    set to 0 (the balance solvers' mask).  A diagonal 1-PS (eigenframe a
    row index, bergman._frame) has diagonal forms; a T- or LM-solve from
    such an H0 stays on them.  A P^2 grid is its own quotient."""
    return grid.orbits if invariant else grid


# ---------------------------------------------------------------------------
# Log-det energy


def m2_along_path(
    basis: SectionBasis, grid: QuadratureGrid, ps: OnePS, ts: Sequence[float]
) -> np.ndarray:
    """M2 sampled at the given path times, sharing the Q evaluations.

    With V the eigenvectors of the generator, grouped by its distinct
    weights w_d, and G_d = (V_d* Q)* (V_d* Q) the r x r Gram block of
    weight group d, the path metric and the reference are

        h(t) = sum_d e^{2 w_d t} G_d,    h_ref = Q*Q = sum_d G_d

    (V is unitary).  Per block of the chart, which arrives node-last from
    `bundles.q_field`, the weight groups V_d* Q are read by _groups: for a
    permutation frame (that of every diagonal generator, OnePS.rows) a
    gather of the chart's own rows; any other frame costs one GEMM.
    Every h(t_j), with h_ref as t_0 = 0, comes from the table
    e^{2 w_d t_j} in one GEMM per matrix entry, one Cholesky pass gives
    all their log-dets and one integrate call all their integrals.  Each G_d is bounded by h_ref, so a block overflows
    only where the reference or a path metric does: NonFiniteChart names
    it, by its index in ``grid``.  For a diagonal 1-PS the nodes are those
    of grid.orbits (_orbit_grid), and on a split bundle h(t) is diagonal
    and needs no factorization (_m2_columns).
    """
    frame = _frame(ps)
    grid = _orbit_grid(grid, frame.ndim == 1)
    times = np.concatenate([[0.0], np.asarray(ts, dtype=float).ravel()])
    if frame.ndim == 1 and basis.bundle.kind == "split_p1":
        return _m2_columns(basis, grid, ps, times)
    with np.errstate(over="ignore"):
        table = np.exp(2.0 * np.outer(ps.weights, times))
    vals = np.empty((len(times), len(grid.nodes)))
    for sl, q in kernels.blocks(basis, grid.nodes):
        grams = np.stack([kernels.pair(b, b) for b in _groups(frame, ps.slices, q)], axis=2)
        with np.errstate(over="ignore", invalid="ignore"):
            h = table.T @ grams  # (r, r, T+1, B)
        vals[:, sl] = kernels.logdet(kernels.finite(h, grid, sl))
    return grid.integrate(vals[1:] - vals[0]) / grid.volume


def _m2_columns(basis: SectionBasis, grid: QuadratureGrid, ps: OnePS, times: np.ndarray) -> np.ndarray:
    """m2_along_path at ``times`` (times[0] = 0) for a diagonal 1-PS of a
    split bundle, whose row i lives in the fibre column c of
    basis.summand_rows(c): h(t) is diagonal, h_c(t) = e^{2 top_c t} sum_i
    e^{2 (lam_i - top_c) t} |Q_ic|^2 with lam_i the weight of row i and
    top_c the largest in column c, one real GEMM per column against a
    table no entry of which exceeds 1.  M2(t) = 2 t sum_c top_c plus the
    integral of sum_c log(h_c(t) / h_c(0)); kernels.finite names an
    overflowed |Q_ic|^2, integrate an h_c(t) that underflowed to 0."""
    lam = np.empty(basis.dimension)
    lam[ps.rows] = ps.eigenvalues
    runs = [slice(rows.start, rows.stop) for rows in map(basis.summand_rows, range(basis.rank))]
    tops = np.array([lam[s].max() for s in runs])
    tables = [np.exp(2.0 * np.outer(times, lam[s] - top)) for s, top in zip(runs, tops)]
    vals = np.empty((len(times) - 1, len(grid.nodes)))
    for sl, q in kernels.blocks(basis, grid.nodes):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rho = q.real ** 2 + q.imag ** 2
            h = np.stack([tab @ rho[s, c] for c, (s, tab) in enumerate(zip(runs, tables))])
            vals[:, sl] = np.log(kernels.finite(h, grid, sl)[:, 1:] / h[:, :1]).sum(axis=0)
    return 2.0 * times[1:] * tops.sum() + grid.integrate(vals) / grid.volume


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
    method: str,
) -> np.ndarray:
    """Chern curvature density of the honest metric, shape (M, r, r), in
    closed form from the holomorphic derivatives of Q (see _curvature_frame).

    h, a and c are combined from the jet blocks of _path_jets, as m1_rate
    combines them.  A diagonal form (that of every diagonal 1-PS,
    OnePS.form_at) is a permutation frame (bergman._diagonal_frame), one
    group per value, each group's blocks weighted by that value, with no
    eigh and no GEMM.  On P^1 its curvature is a function of |z|: it is
    computed on grid.orbits (_orbit_grid) and repeated grid.ring times.
    Any other form H = V Lambda V* is one group of the square root
    F = Lambda^{1/2} V* (F*F = H), on every node of ``grid``.

    Normalized as a density against the quadrature measure:
    grid.integrate(trace of the result) equals the degree of E.
    """
    _only_analytic(method)
    diagonal = _diagonal_frame(form.matrix)
    if diagonal:
        rotation, values = diagonal
        cuts = [0, *(np.flatnonzero(np.diff(values)) + 1), len(values)]
        slices = tuple(slice(i, j) for i, j in zip(cuts, cuts[1:]))
        weights = values[cuts[:-1]]
    else:
        lam, v = np.linalg.eigh(form.matrix)
        rotation, slices, weights = np.sqrt(lam)[:, None] * v.conj().T, (slice(None),), np.ones(1)
    jets = _path_jets(basis, _orbit_grid(grid, rotation.ndim == 1), rotation, slices)
    f_t = np.empty((basis.rank, basis.rank, len(jets.grid.nodes)), dtype=complex)
    for sl, stack in jets.stacks:
        twist = jets.twist[sl]
        w, l, k = _frame_block(basis.level / twist, stack, weights, jets.grid, sl)
        f_t[..., sl] = kernels.mul(kernels.mul(kernels.ct(w), k), kernels.ct(l)) * twist
    if jets.grid is not grid:  # one node per ring: repeat it over the ring
        f_t = np.repeat(f_t, grid.ring, axis=-1)
    return f_t.transpose(2, 1, 0)


def _curvature_frame(fs, h, a, c):
    """The curvature of the honest metric on one node block, in the frame
    that whitens h, from (r, r, B) stacks of h = Q* H Q, a = Q* H dQ and
    c = dQ* H dQ, and fs = k / (1 + |z|^2)^2 at the nodes.

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
    for i in range(len(k)):
        k[i, i] -= fs
    return w, l, k


# ---------------------------------------------------------------------------
# Curvature pairing M1


@dataclass(frozen=True)
class _Jets:
    """The 1-jet blocks of _path_jets: the grid whose nodes they were
    formed on, (1 + |z|^2)^2 at every node, and per node block (slice,
    stack), the (D, 3, r, r, B) stack holding G_d, A_d, C_d of the D
    groups, node index last."""

    grid: QuadratureGrid
    twist: np.ndarray
    stacks: list


def _path_jets(basis: SectionBasis, grid: QuadratureGrid, rotation, slices) -> _Jets:
    """The per-weight 1-jet blocks of the chart, per node block, for the
    rows ``slices`` of a ``rotation`` R, a matrix or a row index, read as
    by _groups: for a row index, a gather of the rows of Q and dQ/dz;
    for a matrix, row slices of one GEMM each.

    Along a 1-PS R = V* and the slices are its weight groups: with V_d
    the eigenvectors of weight w_d, B_d = V_d* Q and D_d = V_d* dQ/dz,
    the blocks G_d = B_d* B_d, A_d = B_d* D_d and C_d = D_d* D_d give
    every factor of the M1 integrand at path time t:

        h = sum_d e^{2 w_d t} G_d,   hdot = sum_d 2 w_d e^{2 w_d t} G_d,
        a = sum_d e^{2 w_d t} A_d,   c = sum_d e^{2 w_d t} C_d.

    The nodes are those of ``grid``; the callers choose it with
    _orbit_grid.
    """
    if grid.space_tag != "P1":
        raise NotImplementedError("curvature implemented on the P1 catalog")
    z, r = grid.nodes, basis.rank
    stacks = []
    for sl, q in kernels.blocks(basis, z):
        dq = kernels.node_last(bundles.dq_dz_field(basis, z[sl]))
        groups = zip(_groups(rotation, slices, q), _groups(rotation, slices, dq))
        del dq  # a GEMM frame holds only its product
        stack = np.empty((len(slices), 3, r, r, q.shape[-1]), dtype=complex)
        for i, (b, db) in enumerate(groups):
            stack[i] = kernels.pair(b, b), kernels.pair(b, db), kernels.pair(db, db)
        stacks.append((sl, stack))
    return _Jets(grid, (1.0 + np.abs(z) ** 2) ** 2, stacks)


def _frame_block(fs, stack, e, grid, sl: slice):
    """(W, L, K) of _curvature_frame on the node block ``sl`` of ``grid``,
    for h, a and c = sum_d e_d (G_d, A_d, C_d) from its jets;
    NonFiniteChart names the first node where one of them overflowed."""
    return _curvature_frame(fs, *kernels.finite(_weighted(e, stack), grid, sl))


def _weighted(e, stack):
    """sum_d e_d stack[d]: one GEMM of e against the stack as a D-row
    matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (e @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


def m1_rate(basis: SectionBasis, ps: OnePS, t: float, jets: _Jets) -> float:
    """d/dt of the curvature-pairing energy at path time t:
    int_X tr( g^{-1} dg/dt . F[g] ) on the honest metric g.

    ``jets`` holds the blocks of _path_jets for ps, which m1_curve forms
    once on _orbit_grid; per node block only a D-term combination and the
    whitened r x r algebra remain.  The integral runs over the grid the
    jets were formed on, jets.grid.  Since g^{-1} dg/dt = -(h^{-1} hdot)^T,
    the integrand is -(1 + |z|^2)^2 tr(X K) with X = W hdot W* and K from
    _curvature_frame.
    """
    grid = jets.grid
    weights = np.asarray(ps.weights)
    with np.errstate(over="ignore"):
        e = np.exp(2.0 * weights * t)
    e_dot = 2.0 * weights * e
    integrand = np.empty(len(grid.nodes))
    for sl, stack in jets.stacks:
        twist = jets.twist[sl]
        w, _, k = _frame_block(basis.level / twist, stack, e, grid, sl)
        x = kernels.mul(kernels.mul(w, _weighted(e_dot, stack[:, 0])), kernels.ct(w))
        integrand[sl] = -twist * (x * k.transpose(1, 0, 2)).sum(axis=(0, 1)).real  # tr(X K)
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
    [0, max(ts)] at the sorted times, n_path // (distinct times) nodes per
    segment, a rule built once per size (gauss_rule).  The jet blocks are
    formed once, on _orbit_grid, and dropped on return."""
    _only_analytic(method)
    ts = np.asarray(ts, dtype=float).ravel()
    if (ts < 0).any():
        raise ValueError("path time must be nonnegative")
    x, w = gauss_rule(max(4, n_path // max(1, len(np.unique(ts)))))
    frame = _frame(ps)
    jets = _path_jets(basis, _orbit_grid(grid, frame.ndim == 1), frame, ps.slices) if (ts > 0).any() else None
    out = np.empty(len(ts))
    total = 0.0
    lo = 0.0
    for i in np.argsort(ts, kind="stable"):
        t = ts[i]
        if t > lo:
            nodes = 0.5 * (t - lo) * (x + 1.0) + lo
            rates = [m1_rate(basis, ps, tv, jets) for tv in nodes]
            total += 0.5 * (t - lo) * float(np.dot(w, rates))
            lo = t
        out[i] = total
    return out


def form_energy(basis: SectionBasis, grid: QuadratureGrid, H: np.ndarray) -> float:
    """M1 + mu M2 of h_H against h_ref, mu = deg / rank: the combined
    energy at the end of the 1-PS from I through H / det(H)^{1/N}, whose
    trace-free generator zeta = (1/2) log H one_ps scales to operator
    norm at most 1, so that the end is t = max(1, ||zeta||)."""
    H = np.asarray(H, dtype=complex)
    lam, v = (H.diagonal().real, np.eye(len(H))) if _diagonal_frame(H) else np.linalg.eigh(H)
    logs = 0.5 * (np.log(lam) - np.log(lam).mean())
    ps = one_ps((v * logs) @ v.conj().T)
    t = [max(1.0, float(np.abs(logs).max()))]
    mu = float(basis.bundle.degree / basis.rank)
    return float(m1_curve(basis, grid, ps, t)[0] + mu * m2_along_path(basis, grid, ps, t)[0])


# ---------------------------------------------------------------------------
# Slope fitting


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    residual: float
    predicted: Optional[Fraction]

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
        slope=float(coef[0]),
        residual=float(np.sqrt(np.mean((fitted - vv) ** 2))),
        predicted=predicted,
    )
