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
(QuadratureGrid.orbits), and so does the curvature of a diagonal form,
repeated over each ring.  There h, a and c are diagonal and all three
read one real table |Q_ic|^2 (kernels.columns, as the balance solvers'
column route does): M2 as one positive sum per column, M1 and the
curvature as per-column weight statistics (_column_terms), with no jets,
no Cholesky and no overflow in t.  Every other 1-PS or form keeps the
Gram and jet blocks on the whole grid, and so does P^2.  A failure on
the quotient names its node in the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import bundles, kernels
from .bergman import HermitianForm, OnePS, _diagonal_frame, one_ps
from .bundles import SectionBasis
from .quadrature import QuadratureGrid, gauss_rule


class InsufficientSamples(ValueError):
    pass


MIN_TAIL_SAMPLES = 5  # the fewest samples asymptotic_slope_fit takes in its window


# ---------------------------------------------------------------------------
# Log-det energy


def _path_times(ts) -> np.ndarray:
    """The path times as a flat float array, each finite."""
    ts = np.asarray(ts, dtype=float).ravel()
    if not np.isfinite(ts).all():
        raise ValueError(f"path time must be finite, not {ts[~np.isfinite(ts)][0]}")
    return ts


def m2_along_path(
    basis: SectionBasis, grid: QuadratureGrid, ps: OnePS, ts: Sequence[float]
) -> np.ndarray:
    """M2 sampled at the given path times, sharing the Q evaluations.

    With V the eigenvectors of the generator, grouped by its distinct
    weights w_d, and G_d = (V_d* Q)* (V_d* Q) the r x r Gram block of
    weight group d, the path metric and the reference are

        h(t) = sum_d e^{2 w_d t} G_d,    h_ref = Q*Q = sum_d G_d

    (V is unitary).  On the chart of ``grid`` (kernels.chart), evaluated
    once, the weight groups V_d* Q are row slices of one GEMM by V*.
    Every h(t_j), with h_ref as t_0 = 0, comes from the table
    e^{2 w_d t_j} in one GEMM per matrix entry, one Cholesky pass gives
    all their log-dets and one integrate call all their integrals.  Each
    G_d is bounded by h_ref, so a node overflows only where the reference
    or a path metric does: NonFiniteChart names it, by its index in
    ``grid``.  For a diagonal 1-PS of a split bundle (OnePS.rows) the nodes
    are those of grid.orbits, its forms being diagonal, and h(t) is
    diagonal and needs no factorization (_m2_columns).
    """
    times = np.concatenate([[0.0], _path_times(ts)])
    if ps.rows is not None and basis.bundle.kind == "split_p1":
        return _m2_columns(basis, grid, ps, times)
    with np.errstate(over="ignore"):
        table = np.exp(2.0 * np.outer(ps.weights, times))
    vq = kernels.act(ps.vectors.conj().T, kernels.chart(basis, grid.nodes))
    grams = np.stack([kernels.pair(vq[s], vq[s]) for s in ps.slices], axis=2)
    with np.errstate(over="ignore", invalid="ignore"):
        h = table.T @ grams  # (r, r, T+1, M)
    vals = kernels.logdet(kernels.finite(h, grid))
    return grid.integrate(vals[1:] - vals[0]) / grid.volume


def _m2_columns(basis: SectionBasis, grid: QuadratureGrid, ps: OnePS, times: np.ndarray) -> np.ndarray:
    """m2_along_path at ``times`` (times[0] = 0) for a diagonal 1-PS of a
    split bundle, from its column table on grid.orbits (kernels.columns):
    h(t) is diagonal, h_c(t) = e^{2 top_c t} sum_i e^{2 (lam_i - top_c) t}
    |Q_ic|^2 over the rows i of column c, one real GEMM per column against
    a table no entry of which exceeds 1, and M2(t) = 2 t sum_c top_c +
    int sum_c log(h_c(t) / h_c(0)) / Vol."""
    rho, rows = kernels.columns(basis, grid.orbits)
    lam = ps.eigenvalues[np.argsort(ps.rows)]
    tops = [lam[s].max() for s in rows]
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.stack([np.exp(np.outer(times, 2.0 * (lam[s] - top))) @ rho[s] for s, top in zip(rows, tops)])
        vals = np.log(h[:, 1:] / h[:, :1]).sum(axis=0)
    return 2.0 * times[1:] * sum(tops) + grid.orbits.integrate(vals) / grid.volume


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

    A diagonal form of a split bundle on P^1 (every OnePS.form_at of a
    diagonal generator) reads the column table (_column_terms): its
    curvature is diagonal, a function of |z| on grid.orbits repeated
    grid.ring times.  Any other form H = V Lambda V* is the one group of
    F = Lambda^{1/2} V* (F*F = H) in the jets of _path_jets, on every
    node of ``grid``.

    Normalized as a density against the quadrature measure:
    grid.integrate(trace of the result) equals the degree of E.
    """
    _only_analytic(method)
    if _diagonal_frame(form.matrix) and basis.bundle.kind == "split_p1":
        cols = _columns(basis, grid, 0.5 * np.log(form.matrix.diagonal().real))
        f = np.zeros((len(cols.grid.nodes), basis.rank, basis.rank), dtype=complex)
        for c, (_, f_c) in enumerate(_column_terms(basis, cols, 1.0)):
            f[:, c, c] = f_c
        return np.repeat(f, grid.ring, axis=0)
    lam, v = np.linalg.eigh(form.matrix)
    jets = _path_jets(basis, grid, np.sqrt(lam)[:, None] * v.conj().T, (slice(None),))
    w, l, k = _curvature_frame(basis.level / jets.twist, *kernels.finite(jets.held[0], grid))
    return (kernels.mul(kernels.mul(kernels.ct(w), k), kernels.ct(l)) * jets.twist).transpose(2, 1, 0)


def _curvature_frame(fs, h, a, c):
    """The curvature of the honest metric at every node, in the frame
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
class _Table:
    """What m1_rate reads (_path_table): a grid, a factor per node and the
    held chart data, node index last.  Jets (_path_jets): twist
    (1 + |z|^2)^2 and ``held`` the (D, 3, r, r, M) stack of G_d, A_d, C_d
    of the D groups.  Column table (_columns): twist (1 + |z|^2)^2 / |z|^2,
    ``held`` the one real (N, M) array rho_i = |Q_ic|^2 of
    kernels.columns, and per column ``runs`` (rows, top_c, 2 (lam -
    top_c), (m_i - m_j)^2 for i < j, else 0)."""

    grid: QuadratureGrid
    twist: np.ndarray
    held: np.ndarray
    runs: Optional[list] = None


def _path_jets(basis: SectionBasis, grid: QuadratureGrid, rotation: np.ndarray, slices) -> _Table:
    """The per-weight 1-jet blocks of the chart for the row slices
    ``slices`` of one GEMM of a matrix ``rotation`` R against Q and one
    against dQ/dz, at every node of ``grid``.

    Along a 1-PS R = V* and the slices are its weight groups: with V_d
    the eigenvectors of weight w_d, B_d = V_d* Q and D_d = V_d* dQ/dz,
    the blocks G_d = B_d* B_d, A_d = B_d* D_d and C_d = D_d* D_d give
    every factor of the M1 integrand at path time t:

        h = sum_d e^{2 w_d t} G_d,   hdot = sum_d 2 w_d e^{2 w_d t} G_d,
        a = sum_d e^{2 w_d t} A_d,   c = sum_d e^{2 w_d t} C_d.
    """
    if grid.space_tag != "P1":
        raise NotImplementedError("curvature implemented on the P1 catalog")
    z, r = grid.nodes, basis.rank
    vq = kernels.act(rotation, kernels.chart(basis, z))
    vdq = kernels.act(rotation, kernels.node_last(bundles.dq_dz_field(basis, z)))
    stack = np.empty((len(slices), 3, r, r, len(z)), dtype=complex)
    for i, s in enumerate(slices):
        stack[i] = kernels.pair(vq[s], vq[s]), kernels.pair(vq[s], vdq[s]), kernels.pair(vdq[s], vdq[s])
    return _Table(grid, (1.0 + np.abs(z) ** 2) ** 2, stack)


def _weighted(e, stack):
    """sum_d e_d stack[d]: one GEMM of e against the stack as a D-row
    matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (e @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


def _columns(basis: SectionBasis, grid: QuadratureGrid, lam: np.ndarray) -> _Table:
    """The |Q|^2 table of a split bundle on grid.orbits (kernels.columns)
    for the forms e^{2 lam t}, lam a weight per section row.  Row i of Q is
    one monomial c_i z^{m_i} in its column (m = SectionBasis.characters):
    dQ_i / Q_i = m_i / z exactly."""
    grid = grid.orbits
    rho, rows = kernels.columns(basis, grid)
    m, a = basis.characters, np.abs(grid.nodes) ** 2
    runs = [(s, lam[s].max(), 2.0 * (lam[s] - lam[s].max()), np.triu(np.subtract.outer(m[s], m[s]) ** 2.0))
            for s in rows]
    return _Table(grid, (1.0 + a) ** 2 / a, rho, runs)


def _column_terms(basis: SectionBasis, cols: _Table, t: float):
    """(p, F_c) per column c of ``cols`` at time t, at every node.  h, a
    and c are diagonal; with p_i = e^{2 (lam_i - top_c) t} rho_i over its
    sum on the rows of c (p <= 1, sum p = 1), the Lagrange
    identity S_c / h_c = (c_c h_c - |a_c|^2) / h_c^2 = sum_{i<j} p_i p_j
    (m_i - m_j)^2 / |z|^2 sums non-negative terms (one K_c x K_c product
    per column): nothing cancels.  F_c = (1 + |z|^2)^2 S_c / h_c - k is
    the curvature density of column c against the quadrature measure."""
    for s, _, shift, d in cols.runs:
        w = np.exp(shift * t)[:, None] * cols.held[s]
        p = w / w.sum(axis=0)
        yield p, cols.twist * (p * (d @ p)).sum(axis=0) - basis.level


def _path_table(basis: SectionBasis, grid: QuadratureGrid, ps: OnePS):
    """What m1_rate reads for ps: along a diagonal 1-PS of a split bundle
    the column table on grid.orbits, its forms being diagonal, else the
    jets of the weight groups of V* on ``grid``."""
    if ps.rows is not None and basis.bundle.kind == "split_p1":
        return _columns(basis, grid, ps.eigenvalues[np.argsort(ps.rows)])
    return _path_jets(basis, grid, ps.vectors.conj().T, ps.slices)


def m1_rate(basis: SectionBasis, ps: OnePS, t: float, table: _Table) -> float:
    """d/dt of the curvature-pairing energy at path time t:
    int_X tr( g^{-1} dg/dt . F[g] ) on the honest metric g, over
    table.grid, ``table`` the one _path_table forms for ps.  Since
    g^{-1} dg/dt = -(h^{-1} hdot)^T, the integrand is
    -(1 + |z|^2)^2 tr(h^{-1} hdot K).  On a column table (runs set) it is
    -sum_c (2 top_c + sum_i p_i 2 (lam_i - top_c)) F_c with p and F_c of
    _column_terms: no jets, no Cholesky and no overflow in t.  On the
    jets, a D-term combination and the whitened r x r algebra at every
    node: X = W hdot W* and K from _curvature_frame."""
    grid = table.grid
    if table.runs is not None:
        integrand = np.zeros(len(grid.nodes))
        for (_, top, shift, _), (p, f) in zip(table.runs, _column_terms(basis, table, t)):
            integrand -= (2.0 * top + shift @ p) * f
        return grid.integrate(integrand)
    weights = np.asarray(ps.weights)
    with np.errstate(over="ignore"):
        e = np.exp(2.0 * weights * t)
    e_dot = 2.0 * weights * e
    w, _, k = _curvature_frame(basis.level / table.twist, *kernels.finite(_weighted(e, table.held), grid))
    x = kernels.mul(kernels.mul(w, _weighted(e_dot, table.held[:, 0])), kernels.ct(w))
    return grid.integrate(-table.twist * (x * k.transpose(1, 0, 2)).sum(axis=(0, 1)).real)  # tr(X K)


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
    segment, a rule built once per size (gauss_rule).  The table the rates
    read (_path_table) is formed once and dropped on return."""
    _only_analytic(method)
    ts = _path_times(ts)
    if (ts < 0).any():
        raise ValueError("path time must be nonnegative")
    x, w = gauss_rule(max(4, n_path // max(1, len(np.unique(ts)))))
    table = _path_table(basis, grid, ps) if (ts > 0).any() else None
    out = np.empty(len(ts))
    total = 0.0
    lo = 0.0
    for i in np.argsort(ts, kind="stable"):
        t = ts[i]
        if t > lo:
            nodes = 0.5 * (t - lo) * (x + 1.0) + lo
            rates = [m1_rate(basis, ps, tv, table) for tv in nodes]
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
    if sel.sum() < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(f"need at least {MIN_TAIL_SAMPLES} tail samples")
    tt, vv = times[sel], values[sel]
    a = np.stack([tt, np.ones_like(tt)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(a, vv, rcond=None)
    fitted = a @ coef
    return SlopeFit(
        slope=float(coef[0]),
        residual=float(np.sqrt(np.mean((fitted - vv) ** 2))),
        predicted=predicted,
    )
