"""Balanced-metric dynamics on the space of hermitian forms.

A hermitian form H on the dual section space induces the Fubini-Study
metric h_H = Q* H Q.  Its center of mass

    M(H) = (1/Vol_L) int sigma Q h_H^{-1} Q* sigma* dV,   sigma = H^{1/2},

is hermitian positive semidefinite with trace exactly r, and H is
*balanced* when M(H) = (r/N) I, which is precisely the critical-point
equation of the log-determinant energy m2.  Two solvers are provided: a
fixed-point T-operator iteration and a damped least-squares
(Levenberg-Marquardt) minimization of the center-of-mass residual, both
recording a per-iteration history suitable for convexity and divergence
diagnostics.  The delta diagnostic quantifies the distance from a
computed minimizer to the Hermitian-Einstein reference through the
eigenvalue pinch delta and a spectral constant of the Laplacian.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import donaldson as don
from . import kernels
from .bergman import HermitianForm, MetricField
from .bundles import SectionBasis, h_ref_field, q_field
from .kernels import SingularGram
from .quadrature import QuadratureGrid


class Inconclusive(ValueError):
    pass


class MissingHE(ValueError):
    pass


# Divergence thresholds: the spread is stored as log(lmax/lmin); the
# ratio threshold 1e3 converts to log(1e3) on the stored field.
SPREAD_RATIO_LIMIT = 1.0e3
M2_DECREASE_RUN = 50
# LM relative acceptance margin and stationarity threshold (see
# lm_minimize): steps and probes that move only roundoff are not taken.
LM_DECREASE_MARGIN = 1e-9
LM_STATIONARY = 1e-10


@dataclass(frozen=True)
class BalanceState:
    """Immutable snapshot of a balance solver."""

    H: np.ndarray
    iteration: int
    center_of_mass: np.ndarray
    residual: float
    m2: float
    spread: float  # log(lambda_max / lambda_min) of H
    flag: str = "running"  # running | converged | diverged | max_iter

    @property
    def spread_ratio(self) -> float:
        return float(np.exp(self.spread))


@dataclass(frozen=True)
class HistoryRow:
    """One iterate of a solver, with the kind of step taken from it
    (t | lm | fallback, none when the run stopped there), the number of
    LM trials rejected while looking for that step, and the LM damping
    in use at the iterate (0.0 for T-steps)."""

    iteration: int
    residual: float
    m2: float
    spread: float
    wallclock_ms: float
    step: str = "none"
    rejected: int = 0
    damping: float = 0.0


@dataclass(frozen=True)
class DeltaDiagnostic:
    delta: float
    v_bar: float
    v_norm2: float
    spectral_constant: float
    lower_bound: float


@dataclass(frozen=True)
class ConvexityReport:
    min_second_difference: float
    n_samples: int
    passed: bool


# ---------------------------------------------------------------------------
# Center of mass and the T-operator


def _det_normalize(H: np.ndarray) -> np.ndarray:
    n = H.shape[0]
    if not np.isfinite(H).all():
        raise SingularGram("form overflowed")
    sign, logdet = np.linalg.slogdet(H)
    if sign <= 0:
        raise SingularGram("form is not positive definite")
    return H * np.exp(-logdet / n)


def _b_matrix(basis: SectionBasis, grid: QuadratureGrid, H: np.ndarray, q=None):
    """B(H) = (1/Vol_L) int Q h_H^{-1} Q* dV, so that balance reads
    B(H) = (r/N) H^{-1}; with it log det h_H and the whitening W of h_H
    (h_H^{-1} = W* W) at every node."""
    return kernels.b_matrix(basis, grid.nodes, grid.weights / grid.volume, H, q)


def center_of_mass(basis: SectionBasis, grid: QuadratureGrid, H: np.ndarray) -> np.ndarray:
    """M(H) = sigma B(H) sigma* with sigma = H^{1/2}; trace r exactly."""
    sq = _sqrtm_psd(H)[2]
    b = _b_matrix(basis, grid, H)[0]
    m = sq @ b @ sq
    return 0.5 * (m + m.conj().T)


def _sqrtm_psd(H: np.ndarray):
    """Eigen-decomposition (lam, v) and square root of H."""
    lam, v = np.linalg.eigh(H)
    if lam.min() <= 0:
        raise SingularGram("form is not positive definite")
    return lam, v, (v * np.sqrt(lam)) @ v.conj().T


def m2_value(basis: SectionBasis, grid: QuadratureGrid, H: np.ndarray) -> float:
    """Log-determinant energy of h_H against the reference h_ref = Q*Q."""
    return don.m2_don(basis, grid, HermitianForm(np.asarray(H, dtype=complex)))


def _spread(H: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(H)
    return float(np.log(lam[-1] / lam[0]))


def _solver_parts(basis, grid, H, ld0, q=None):
    """What a solver step needs at the form H, from one pass over the node
    blocks: the whitening W of h_H per node, B(H), _sqrtm_psd(H), the
    hermitian residual M(H) - (r/N) I with M(H) = H^{1/2} B(H) H^{1/2},
    and m2 against the reference log-dets ld0."""
    b, ld, wh = _b_matrix(basis, grid, H, q)
    eig = _sqrtm_psd(H)
    n = basis.dimension
    s = eig[2] @ b @ eig[2] - (basis.rank / n) * np.eye(n)
    return wh, b, eig, 0.5 * (s + s.conj().T), grid.integrate(ld - ld0) / grid.volume


def t_operator(
    basis: SectionBasis, grid: QuadratureGrid, H: np.ndarray, *, b: np.ndarray | None = None,
) -> np.ndarray:
    """One step of the balancing fixed-point map.

    The Gram matrix of the sections in h_H is inverted (the form lives on
    the dual section space) so that fixed points solve B(H) = (r/N) H^{-1},
    i.e. are exactly the zeros of the m2 gradient; the result is
    det-normalized.  ``b`` is B(H) when the caller has computed it already.
    """
    r, n = basis.rank, basis.dimension
    if b is None:
        b = _b_matrix(basis, grid, H)[0]
    lam = np.linalg.eigvalsh(b)
    if lam.min() <= 1e-300:
        raise SingularGram("center-of-mass Gram matrix is singular")
    return _det_normalize((r / n) * np.linalg.inv(b))


def m2_gradient(basis: SectionBasis, grid: QuadratureGrid, H: np.ndarray, zeta: np.ndarray) -> float:
    """First variation of m2 along the path H_t = sigma* e^{2 zeta t} sigma,
    sigma = H^{1/2}: equals 2 tr(zeta M(H))."""
    zeta = np.asarray(zeta, dtype=complex)
    if np.abs(zeta - zeta.conj().T).max() > 1e-12:
        raise ValueError("direction must be hermitian")
    if abs(np.trace(zeta).real) > 1e-10:
        raise ValueError("direction must be trace-free")
    m = center_of_mass(basis, grid, H)
    return float(2.0 * np.trace(zeta @ m).real)


# ---------------------------------------------------------------------------
# Iteration drivers


def _m2_decreasing(m2) -> bool:
    """Monotone decrease with roundoff-scale tie tolerance and a genuine
    net drop over the window."""
    ties_ok = all(b <= a + 1e-12 * (1.0 + abs(a)) for a, b in zip(m2[:-1], m2[1:]))
    return ties_ok and (m2[0] - m2[-1]) > 1e-8


def _divergence_hit(history) -> bool:
    if len(history) < M2_DECREASE_RUN + 1:
        return False
    if np.exp(history[-1].spread) <= SPREAD_RATIO_LIMIT:
        return False
    return _m2_decreasing([row.m2 for row in history[-(M2_DECREASE_RUN + 1):]])


def t_iterate(
    basis: SectionBasis,
    grid: QuadratureGrid,
    H0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 300,
):
    """Run the T-operator to convergence or divergence.

    Returns (final BalanceState, history) where history rows carry
    (iter, residual, m2, spread, wallclock_ms, step, rejected, damping).
    """
    H = _det_normalize(np.asarray(H0, dtype=complex))
    history = []
    t0 = time.perf_counter()
    q = q_field(basis, grid.nodes)
    ld0 = kernels.logdet(kernels.field(basis, grid.nodes, q=q))
    _, b, _, s, m2 = _solver_parts(basis, grid, H, ld0, q)
    state = _state_from(basis, grid, H, 0, s, m2)
    for it in range(max_iter + 1):
        history.append(
            HistoryRow(it, state.residual, state.m2, state.spread,
                       1e3 * (time.perf_counter() - t0))
        )
        if state.residual < tol:
            return replace(state, flag="converged"), history
        if _divergence_hit(history):
            return replace(state, flag="diverged"), history
        if it == max_iter:
            break
        history[-1] = replace(history[-1], step="t")
        H = t_operator(basis, grid, H, b=b)
        _, b, _, s, m2 = _solver_parts(basis, grid, H, ld0, q)
        state = _state_from(basis, grid, H, it + 1, s, m2)
    return replace(state, flag="max_iter"), history


def _herm_basis(n: int):
    """Real basis of trace-free hermitian n x n matrices (n^2 - 1)."""
    out = []
    s = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = s
            e[j, i] = s
            out.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j * s
            e[j, i] = -1j * s
            out.append(e)
    for a in range(n - 1):
        e = np.zeros((n, n), dtype=complex)
        e[a, a] = s
        e[a + 1, a + 1] = -s
        out.append(e)
    return out


def _b_derivatives(basis, grid, q, wh, dh):
    """dB = -(1/Vol) int P dH P for a stack dH of shape (D, N, N), with P
    from the chart values q and the whitening W of h per node, an
    (r, r, M) stack.

    The tensor t4[(i, k), (l, j)] = sum_x w P_ik P_lj is one GEMM per
    node block, and the contraction with every dH is one more.
    """
    n = basis.dimension
    w = grid.weights / grid.volume
    t4 = np.zeros((n * n, n * n), dtype=complex)
    for sl, qb in kernels.blocks(basis, grid.nodes, q):
        pf = kernels.p_field(qb, wh[..., sl]).reshape(n * n, -1)
        t4 += (pf * w[sl]) @ pf.T
    t4 = t4.reshape(n, n, n, n).transpose(1, 2, 0, 3).reshape(n * n, n * n)
    return -(dh.reshape(-1, n * n) @ t4).reshape(dh.shape)


def _sqrt_frechet(lam, v, dh):
    """Daleckii-Krein derivative of the hermitian square root."""
    sq = np.sqrt(lam)
    denom = sq[:, None] + sq[None, :]
    inner = (v.conj().T @ dh @ v) / denom
    return v @ inner @ v.conj().T


def _expm_herm(a: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(a)
    return (v * np.exp(lam)) @ v.conj().T


def lm_minimize(
    basis: SectionBasis,
    grid: QuadratureGrid,
    H0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """Damped least-squares minimization of the center-of-mass residual.

    The iterate is re-centered each accepted step through the congruence
    H <- e^{A/2} H e^{A/2} with A hermitian trace-free, so the Jacobian is
    only ever needed at A = 0 where it is available in closed form:
    dB = -(1/Vol) int P dH P with P = Q h^{-1} Q*.

    A trial step is accepted only when it cuts the Frobenius residual by
    more than the relative margin LM_DECREASE_MARGIN without raising m2,
    so steps that move roundoff alone are rejected.  When the model has
    no descent direction, |J^T r| <= LM_STATIONARY |J|_F |r|, the damping
    ladder is skipped and the iteration goes straight to the m2 descent
    fallback, as it does after every trial was rejected.

    Returns (final BalanceState, history); divergence (spread ratio past
    threshold with a long monotone m2 decrease) is flagged, not raised.
    """
    H = _det_normalize(np.asarray(H0, dtype=complex))
    n = basis.dimension
    directions = np.asarray(_herm_basis(n))
    lam_damp = 1e-3
    history = []
    t0 = time.perf_counter()
    q = q_field(basis, grid.nodes)
    ld0 = kernels.logdet(kernels.field(basis, grid.nodes, q=q))
    # A singular or overflowing trial form only increases the damping.
    rejected = (SingularGram, kernels.NonFiniteChart)
    wh, b, eig, s, m2_cur = _solver_parts(basis, grid, H, ld0, q)
    state = _state_from(basis, grid, H, 0, s, m2_cur)
    fallback_streak = 0
    for it in range(max_iter + 1):
        history.append(
            HistoryRow(it, state.residual, state.m2, state.spread,
                       1e3 * (time.perf_counter() - t0), damping=lam_damp)
        )
        if state.residual < tol:
            return replace(state, flag="converged"), history
        if _divergence_hit(history):
            return replace(state, flag="diverged"), history
        if it == max_iter:
            break

        lamH, vH, sq = eig
        accepted = None
        # After a run of fallback steps the least-squares model is known
        # to be unproductive; only re-probe it occasionally.
        probe_lm = not (fallback_streak >= 3 and it % 10 != 0)
        lm_tries = 0
        jtj = jtr = None
        if probe_lm:
            dh = 0.5 * (directions @ H + H @ directions)
            db = _b_derivatives(basis, grid, q, wh, dh)
            dsq = _sqrt_frechet(lamH, vH, dh)
            ds = (dsq @ b @ sq + sq @ db @ sq + sq @ b @ dsq).reshape(len(dh), -1)
            jac = np.concatenate([ds.real, ds.imag], axis=1).T
            rvec = np.concatenate([s.real.ravel(), s.imag.ravel()])
            jtj = jac.T @ jac
            jtr = jac.T @ rvec
            descent = np.isfinite(jtj).all() and np.isfinite(jtr).all() and (
                np.linalg.norm(jtr) > LM_STATIONARY * np.linalg.norm(jac) * np.linalg.norm(rvec))
            lm_tries = 12 if descent else 0
        n_rejected = lm_tries
        for tried in range(lm_tries):
            lhs = jtj + lam_damp * (np.diag(np.diag(jtj)) + 1e-14 * np.eye(jtj.shape[0]))
            try:
                step = np.linalg.solve(lhs, -jtr)
            except np.linalg.LinAlgError:
                lam_damp = min(lam_damp * 10.0, 1e12)
                continue
            if not np.isfinite(step).all():
                lam_damp = min(lam_damp * 10.0, 1e12)
                continue
            a = np.tensordot(step, directions, axes=1)
            expa = _expm_herm(0.5 * a)
            try:
                H_try = _det_normalize(expa @ H @ expa)
                parts_try = _solver_parts(basis, grid, H_try, ld0, q)
            except rejected:
                lam_damp = min(lam_damp * 10.0, 1e12)
                continue
            # Accept only steps that also do not increase the energy, so
            # runs without a balanced form keep a monotone m2 signature.
            better_resid = np.linalg.norm(parts_try[3], "fro") < (
                (1.0 - LM_DECREASE_MARGIN) * np.linalg.norm(s, "fro"))
            m2_ok = parts_try[4] <= m2_cur + 1e-13 * (1.0 + abs(m2_cur))
            if better_resid and m2_ok:
                H = H_try
                wh, b, eig, s, m2_cur = parts_try
                lam_damp = max(lam_damp / 3.0, 1e-12)
                n_rejected, accepted = tried, "lm"
                fallback_streak = 0
                break
            lam_damp = min(lam_damp * 4.0, 1e12)
        if not accepted:
            # The residual landscape is flat along destabilizing directions
            # (no balanced form exists there), so fall back to steepest
            # descent of m2 itself: direction -(M - (tr M / N) I) in the
            # sigma-frame.  On stable cases this never fires; on unstable
            # ones it drives the characteristic spread growth.
            m_now = sq @ b @ sq
            zeta = -(m_now - (np.trace(m_now) / n) * np.eye(n))
            zeta = 0.5 * (zeta + zeta.conj().T)
            eta = 1.0
            for _ in range(20):
                try:
                    move = _expm_herm(eta * zeta)
                    H_try = _det_normalize(sq @ move @ sq)
                    parts_try = _solver_parts(basis, grid, H_try, ld0, q)
                except rejected:
                    eta *= 0.5
                    continue
                if parts_try[4] < m2_cur:
                    H = H_try
                    wh, b, eig, s, m2_cur = parts_try
                    accepted = "fallback"
                    fallback_streak += 1
                    break
                eta *= 0.5
        history[-1] = replace(history[-1], step=accepted or "none", rejected=n_rejected)
        state = _state_from(basis, grid, H, it + 1, s, m2_cur)
        if not accepted:
            return replace(state, flag="stalled"), history
    return replace(state, flag="max_iter"), history


def _state_from(basis, grid, H, iteration, s, m2) -> BalanceState:
    """BalanceState reusing already-computed residual and energy values."""
    r, n = basis.rank, basis.dimension
    return BalanceState(
        H=H,
        iteration=iteration,
        center_of_mass=s + (r / n) * np.eye(n),
        residual=float(np.linalg.norm(s, "fro")),
        m2=float(m2),
        spread=_spread(H),
        flag="running",
    )


# ---------------------------------------------------------------------------
# Monitors and verdicts


def convexity_monitor(values, tol: float = 1e-8) -> ConvexityReport:
    """Second-difference check for uniformly spaced energy samples."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        raise ValueError("need at least 3 uniformly spaced samples")
    second = v[2:] - 2.0 * v[1:-1] + v[:-2]
    mn = float(second.min())
    return ConvexityReport(min_second_difference=mn, n_samples=v.size, passed=mn >= -tol)


def divergence_detect(history) -> str:
    """Classify a solver history: converged / unstable-like / semistable-like."""
    if len(history) < 20:
        raise Inconclusive("need at least 20 iterations of history")
    last = history[-1]
    if last.residual < 1e-8:
        return "converged"
    ratio = float(np.exp(last.spread))
    m2 = np.asarray([row.m2 for row in history], dtype=float)
    tail = m2[-min(M2_DECREASE_RUN + 1, len(m2)):]
    decreasing = _m2_decreasing(list(tail))
    if ratio > SPREAD_RATIO_LIMIT and decreasing:
        return "unstable-like"
    if ratio > SPREAD_RATIO_LIMIT and abs(tail[-1] - tail[0]) < 1e-6 * max(1.0, abs(tail[0])):
        return "semistable-like"
    raise Inconclusive("history matches neither convergence nor divergence pattern")


def iterate_slope(history, weight_range: float, tail: float = 0.4):
    """Fitted slope of m2 against the iterate-path time proxy
    t = spread / (2 * weight_range), over the trailing fraction of the run."""
    t = np.asarray([row.spread for row in history]) / (2.0 * weight_range)
    m2 = np.asarray([row.m2 for row in history])
    n0 = int((1.0 - tail) * len(t))
    a = np.stack([t[n0:], np.ones(len(t) - n0)], axis=-1)
    coef, *_ = np.linalg.lstsq(a, m2[n0:], rcond=None)
    return float(coef[0])


# ---------------------------------------------------------------------------
# Delta diagnostics


def hermitian_einstein_catalog(basis: SectionBasis, grid: QuadratureGrid, allow_tp2: bool = False) -> MetricField:
    """Catalog Hermitian-Einstein reference at the working level.

    For direct sums of line bundles on P^1 the L2-orthonormal reference
    h_ref = Q*Q is itself the (projectively) Hermitian-Einstein metric,
    since each summand has constant curvature.  The tangent-bundle
    reference (the Fubini-Study-induced metric, Hermitian-Einstein for
    the Kaehler-Einstein metric of P^2) is exposed behind a flag: at a
    finite level it is only an orthonormalized approximation of the true
    HE normalization, so pinch diagnostics against it carry a small
    level-dependent bias.
    """
    if basis.bundle.kind != "split_p1" and not allow_tp2:
        raise MissingHE("no catalog Hermitian-Einstein metric for this bundle")
    return MetricField(grid=grid, values=h_ref_field(basis, grid))


def spectral_constant(grid: QuadratureGrid, degree: int = 3):
    """First nonzero eigenvalue of the Laplacian on functions on P^1.

    Galerkin generalized eigensolve over the span of z^a zbar^b / (1+|z|^2)^d,
    a, b <= d, which contains the low spherical harmonics exactly; the
    Fubini-Study form is normalized to unit volume.  Returns (C, spectrum).
    """
    if grid.space_tag != "P1":
        raise ValueError("spectral constant implemented for P1 grids")
    z = grid.nodes
    s = np.abs(z) ** 2
    d = degree
    phi, dphi = [], []
    base = (1.0 + s) ** (-d)
    for a in range(d + 1):
        for bb in range(d + 1):
            za = z**a
            zb = np.conj(z) ** bb
            phi.append(za * zb * base)
            der = -d * za * zb * np.conj(z) * (1.0 + s) ** (-d - 1)
            if a > 0:
                der = der + a * z ** (a - 1) * zb * base
            dphi.append(der)
    phi = np.stack(phi, axis=-1)
    dphi = np.stack(dphi, axis=-1)
    wt = grid.weights
    mass = np.einsum("m,mi,mj->ij", wt, np.conj(phi), phi)
    stiff = 2.0 * np.pi * np.einsum(
        "m,m,mi,mj->ij", wt, (1.0 + s) ** 2, np.conj(dphi), dphi
    )
    mass = 0.5 * (mass + mass.conj().T)
    stiff = 0.5 * (stiff + stiff.conj().T)
    # Drop near-null mass directions before the generalized solve.
    lam, v = np.linalg.eigh(mass)
    keep = lam > 1e-12 * lam.max()
    basis_ok = v[:, keep] / np.sqrt(lam[keep])
    a_red = basis_ok.conj().T @ stiff @ basis_ok
    ev = np.linalg.eigvalsh(0.5 * (a_red + a_red.conj().T))
    nonzero = ev[ev > 1e-6 * max(1.0, ev.max())]
    return float(nonzero[0]), ev


def _pinch_coefficient(delta: float) -> float:
    """(delta - 1 - log delta) / (log delta)^2, continuously 1/2 at 1."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    ld = np.log(delta)
    if abs(ld) < 1e-6:
        return 0.5
    return float((delta - 1.0 - ld) / ld**2)


def delta_diagnostic(h_min: MetricField, h_he: MetricField, grid: QuadratureGrid,
                     spectral_c: float | None = None) -> DeltaDiagnostic:
    """Eigenvalue-pinch diagnostic of a minimizer against the HE reference.

    delta is the infimum over nodes of lambda_min/lambda_max of
    h_min h_HE^{-1}; v is the matrix logarithm of the symmetrized ratio,
    v_bar its trace average, and the lower bound is
    pinch(delta) * C^{-1} * ||v - v_bar||^2.
    """
    a = h_min.values
    bvals = h_he.values
    lamb, vb = np.linalg.eigh(bvals)
    if lamb.min() <= 0:
        raise ValueError("reference metric must be positive definite")
    isq = (vb / np.sqrt(lamb)[:, None, :]) @ vb.conj().transpose(0, 2, 1)
    ratio = isq @ a @ isq
    ratio = 0.5 * (ratio + np.conj(np.swapaxes(ratio, -1, -2)))
    lam, vr = np.linalg.eigh(ratio)
    if lam.min() <= 0:
        raise ValueError("metric ratio must be positive definite")
    delta = float((lam[:, 0] / lam[:, -1]).min())
    logs = np.log(lam)
    r = a.shape[-1]
    tr_v = logs.sum(axis=-1)
    v_bar = grid.integrate(tr_v) / (r * grid.volume)
    v_norm2 = grid.integrate(((logs - v_bar) ** 2).sum(axis=-1))
    c = spectral_c if spectral_c is not None else spectral_constant(grid)[0]
    bound = _pinch_coefficient(delta) * v_norm2 / c
    return DeltaDiagnostic(
        delta=delta, v_bar=float(v_bar), v_norm2=float(v_norm2),
        spectral_constant=float(c), lower_bound=float(bound),
    )


def donaldson_value_line(basis: SectionBasis, grid: QuadratureGrid, H: np.ndarray,
                         h_he: MetricField) -> float:
    """Combined energy of the FS metric h_H against the HE reference, for
    a line bundle on P^1.

    Uses the endpoint formula: with v the honest log-ratio of the two
    metrics, the curvature pairing is (1/2) int v (F_0 + F_1) and the
    log-det term is int v; the HE curvature density is the exact constant
    deg.  The raw forms are dual metrics, so the honest log-ratio is
    minus the raw one.
    """
    if basis.bundle.kind != "split_p1" or basis.rank != 1:
        raise MissingHE("endpoint formula implemented for line bundles on P1")
    mu = float(basis.bundle.sheaf().degree)
    h_raw = kernels.field(basis, grid.nodes, np.asarray(H, dtype=complex)).real[0, 0]
    h_he_raw = h_he.values.real[:, 0, 0]
    v = -(np.log(h_raw) - np.log(h_he_raw))
    f1 = don.curvature_field(
        basis, grid, HermitianForm(matrix=np.asarray(H, dtype=complex))
    ).real[:, 0, 0]
    f0 = mu  # constant curvature density of the HE metric, exact
    m1 = 0.5 * grid.integrate(v * (f0 + f1))
    m2 = grid.integrate(v) / grid.volume
    return float(m1 - mu * m2)
