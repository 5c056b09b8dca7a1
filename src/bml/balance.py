"""Balanced-metric dynamics on the space of hermitian forms.

A hermitian form H on the dual section space induces the Fubini-Study
metric h_H = Q* H Q.  Its center of mass

    M(H) = (1/Vol_L) int sigma Q h_H^{-1} Q* sigma* dV,   sigma = H^{1/2},

is hermitian positive semidefinite with trace exactly r, and H is
*balanced* when M(H) = (r/N) I, the critical-point equation of the
log-determinant energy m2.  Two solvers, a fixed-point T-operator
iteration and a damped least-squares (Levenberg-Marquardt) minimization
of the center-of-mass residual, record a per-iteration history for
convexity and divergence diagnostics.  From a diagonal start on P^1 both
run on the |Q|^2 column table of one node per torus orbit
(_column_route); from any other on the whole grid, where a T-step is one
eigh of B(H), B(H) comes ring by ring from the orbit chart for a line
bundle on P^1 (kernels.rings) and from the held whole chart otherwise
(kernels.b_matrix).  A malformed start is refused first (_start_form).
The delta diagnostic bounds the distance from a computed minimizer to
the Hermitian-Einstein reference by the eigenvalue pinch delta and the
spectral constant of the Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import kernels
from .bergman import HermitianForm
from .bundles import SectionBasis, h_ref_field
from .kernels import SingularGram
from .quadrature import QuadratureGrid


class Inconclusive(ValueError):
    pass


class MissingHE(ValueError):
    pass


class LMMemoryExceeded(ValueError):
    pass


# Divergence thresholds: the spread is stored as log(lmax/lmin); the
# ratio threshold 1e3 converts to log(1e3) on the stored field.
SPREAD_RATIO_LIMIT = 1.0e3
M2_DECREASE_RUN = 50
# LM relative acceptance margin and stationarity threshold (see
# lm_minimize): steps and probes that move only roundoff are not taken.
LM_DECREASE_MARGIN = 1e-9
LM_STATIONARY = 1e-10
# The most memory, in bytes, that one LM Jacobian may need (lm_minimize).
LM_MEMORY_BUDGET = 2**30


@dataclass(frozen=True)
class BalanceState:
    """Immutable snapshot of a balance solver."""

    H: np.ndarray
    iteration: int
    center_of_mass: np.ndarray
    residual: float
    m2: float
    spread: float  # log(lambda_max / lambda_min) of H
    flag: str  # converged | diverged | max_iter | stalled

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
    step: str = "none"
    rejected: int = 0
    damping: float = 0.0


@dataclass(frozen=True)
class DeltaDiagnostic:
    delta: float
    lower_bound: float


# ---------------------------------------------------------------------------
# Center of mass and the T-operator


def _det_normalize(H: np.ndarray) -> np.ndarray:
    """H at determinant one; a diagonal held as a vector, at mean log 0."""
    n = H.shape[0]
    if not np.isfinite(H).all():
        raise SingularGram("form overflowed")
    if H.ndim == 1:
        if not (H > 0).all():
            raise SingularGram("form is not positive definite")
        return H * np.exp(-np.log(H).mean())
    sign, logdet = np.linalg.slogdet(H)
    if sign <= 0:
        raise SingularGram("form is not positive definite")
    return H * np.exp(-logdet / n)


def center_of_mass(basis: SectionBasis, grid: QuadratureGrid, H: np.ndarray) -> np.ndarray:
    """M(H) = sigma B(H) sigma* with sigma = H^{1/2}; trace r exactly."""
    n = basis.dimension
    b_matrix = partial(kernels.b_matrix, kernels.chart(basis, grid.nodes), grid)
    return _solver_parts(basis, grid, b_matrix, H, 0.0).s + (basis.rank / n) * np.eye(n)


def m2_value(basis: SectionBasis, grid: QuadratureGrid, H: np.ndarray) -> float:
    """Log-determinant energy of h_H against the reference h_ref = Q*Q."""
    H = HermitianForm(np.asarray(H, dtype=complex)).matrix
    q = kernels.chart(basis, grid.nodes)
    ld = [kernels.logdet(kernels.field(q, grid, mat)) for mat in (H, None)]
    return grid.integrate(ld[0] - ld[1]) / grid.volume


class _Iterate(NamedTuple):
    """A solver iterate: the form H, sq = H^{1/2}, B(H), the hermitian
    residual s = M(H) - (r/N) I with M(H) = sq B(H) sq, m2, the spread
    log(lambda_max / lambda_min) of H, and what the LM Jacobian reads:
    (W per node, eigenpairs of H) on the grid, (p, int p) on the columns,
    where H, sq, B(H) and s are held as their diagonals."""

    H: np.ndarray
    sq: np.ndarray
    b: np.ndarray
    s: np.ndarray
    m2: float
    spread: float
    parts: tuple


def _solver_parts(basis, grid, b_matrix, H, ld0, eig=None) -> _Iterate:
    """The iterate at the form H from ``b_matrix(H)``, B(H) with log det h
    and W at every node of ``grid`` (kernels.rings, or kernels.b_matrix on
    a held chart), with m2 against the reference log-dets ld0.  sq = V
    diag(sqrt lam) V* and the spread come from the eigenpairs ``eig`` =
    (lam, V) of H a T-step gives (t_operator), or from one eigh of H."""
    b, ld, wh = b_matrix(H)
    lam, v = np.linalg.eigh(H) if eig is None else eig
    if lam.min() <= 0:
        raise SingularGram("form is not positive definite")
    sq = (v * np.sqrt(lam)) @ v.conj().T
    n = basis.dimension
    s = sq @ b @ sq - (basis.rank / n) * np.eye(n)
    return _Iterate(H, sq, b, 0.5 * (s + s.conj().T), grid.integrate(ld - ld0) / grid.volume,
                    np.log(lam.max() / lam.min()), (wh, lam, v))


def _column_route(basis, nodes):
    """evaluate(h) and jacobian(x, directions) of the column route
    (_column_start) on the orbit nodes ``nodes``, for H = diag(h), h a
    real N-vector.  With rho_i = |Q_ic|^2 (kernels.columns), h_H =
    diag(h_c), and p_i = h_i rho_i / h_c is the softmax of log h_i + log
    rho_i over the rows of column c: B(H)_ii = int p_i / h_i, M(H) =
    diag(int p), m2 = int sum_c log(h_c / h_c^0) and d(int p_i)/d log h_j
    = int (delta_ij p_i - p_i p_j) within a column, read along the real
    (D, N) ``directions``.  No sandwich, no Cholesky, no N^4 tensor."""
    r, n = basis.rank, basis.dimension
    rho, rows = kernels.columns(basis, nodes)
    starts = np.array([s.start for s in rows])
    col = np.repeat(np.arange(r), [s.stop - s.start for s in rows])
    ld0 = np.log(np.add.reduceat(rho, starts)).sum(axis=0)

    def evaluate(h, eig=None):
        if not (np.isfinite(h) & (h > 0)).all():
            raise SingularGram("form is not positive definite")
        logh = np.log(h)
        top = np.maximum.reduceat(logh, starts)
        e = np.exp(logh - top[col])[:, None] * rho
        hc = np.add.reduceat(e, starts)
        p = e / hc[col]
        sums = nodes.integrate(np.vstack([p, np.log(hc).sum(axis=0) - ld0])) / nodes.volume
        mass, m2 = sums[:-1], top.sum() + sums[-1]
        return _Iterate(h, np.sqrt(h), mass / h, mass - r / n, m2, logh.max() - logh.min(), (p, mass))

    def jacobian(x, directions):
        p, mass = x.parts
        jac = np.diag(mass) - (col[:, None] == col) * ((p * (nodes.weights / nodes.volume)) @ p.T)
        return jac @ directions.T, x.s

    return evaluate, jacobian


def t_operator(basis: SectionBasis, b: np.ndarray):
    """One step of the balancing fixed-point map, from b = B(H), as (H',
    eigenpairs of H').  The Gram matrix of the sections in h_H is inverted
    (the form lives on the dual section space), so fixed points solve B(H)
    = (r/N) H^{-1}, the zeros of the m2 gradient; H' is det-normalized.
    A dense b takes one eigh, b = V diag(lam) V*, and H' = V diag(mu) V*,
    mu = e^{mean log lam} / lam, whose eigenpairs (mu, V) the next
    iterate reads (_solver_parts).  On the column route b is the diagonal
    of B(H), a vector, and so is H' = (r/N) / b, with eigenpairs None."""
    r, n = basis.rank, basis.dimension
    lam, v = (b, None) if b.ndim == 1 else np.linalg.eigh(b)
    if lam.min() <= 1e-300:
        raise SingularGram("center-of-mass Gram matrix is singular")
    if b.ndim == 1:
        return _det_normalize((r / n) / b), None
    mu = np.exp(np.log(lam).mean()) / lam
    out = (v * mu) @ v.conj().T
    if not np.isfinite(out).all():
        raise SingularGram("form overflowed")
    return out, (mu, v)


# ---------------------------------------------------------------------------
# Iteration drivers


def _m2_decreasing(m2) -> bool:
    """Monotone decrease with roundoff-scale tie tolerance and a genuine
    net drop over the window."""
    ties_ok = all(b <= a + 1e-12 * (1.0 + abs(a)) for a, b in zip(m2[:-1], m2[1:]))
    return ties_ok and (m2[0] - m2[-1]) > 1e-8


def _divergence_hit(history) -> bool:
    """The one divergence rule: the solvers stop on it, divergence_detect
    classifies by it."""
    if len(history) < M2_DECREASE_RUN + 1:
        return False
    if np.exp(history[-1].spread) <= SPREAD_RATIO_LIMIT:
        return False
    return _m2_decreasing([row.m2 for row in history[-(M2_DECREASE_RUN + 1):]])


def _column_start(grid, H0) -> bool:
    """Whether a solve from H0 takes the column route (_column_route) on
    grid.orbits: H0 is diagonal, so it commutes with the torus, and the
    grid has rings.  Every other start runs on the whole grid."""
    return grid.ring > 1 and not (H0 - np.diag(H0.diagonal())).any()


def _ring_start(basis, grid) -> bool:
    """Whether a whole-grid solve evaluates B(H) ring by ring
    (kernels.rings): a line bundle on a grid with rings.  Otherwise, as
    at rank 2 or more, it holds the chart (kernels.b_matrix)."""
    return basis.rank == 1 and grid.ring > 1  # rings: a P^1 grid


def _start_form(basis, H0) -> np.ndarray:
    """H0 as a complex array, unchanged, once it is an N x N form that
    passes the checks of bergman.HermitianForm."""
    H0, n = np.asarray(H0, dtype=complex), basis.dimension
    if H0.shape != (n, n):
        raise ValueError(f"start form has shape {H0.shape}, not ({n}, {n})")
    HermitianForm(H0)
    return H0


def lm_memory_check(basis: SectionBasis, grid: QuadratureGrid, H0: np.ndarray) -> None:
    """Raise LMMemoryExceeded if an LM Jacobian from H0, with its D
    directions on the route of _column_start, needs more than
    LM_MEMORY_BUDGET.  Column route (D = N - 1), all real: the (D, N)
    directions, p and w p on the M / ring orbit nodes, the N x N d(int
    p)/d log h, J (N x D) and J^T J.  Whole grid (D = N^2 - 1), complex:
    t4, D N^2 ten times (dH, dB, dS, J...) and the N r M chart; real: N^4
    three times (S and two terms of t4, _b_derivatives), the N^2 B
    coordinates of P on B = min(BLOCK, M) nodes, J^T J and the N^2 (M /
    ring) pair products of a line bundle's ring table (_ring_start)."""
    n, m = basis.dimension, len(grid.nodes)
    column = _column_start(grid, _start_form(basis, H0))
    d = n - 1 if column else n * n - 1
    pairs = n * n * m // grid.ring if _ring_start(basis, grid) else 0
    need = 8 * (2 * d * n + 2 * n * m // grid.ring + n * n + d * d) if column else (
        16 * (n**4 + 10 * d * n * n + n * basis.rank * m)
        + 8 * (3 * n**4 + n * n * min(kernels.BLOCK, m) + d * d + pairs))
    if need > LM_MEMORY_BUDGET:
        raise LMMemoryExceeded(f"an LM Jacobian at N = {n} with {d} directions needs "
                               f"{need >> 20} MiB, past the budget of {LM_MEMORY_BUDGET >> 20} MiB")


def _solve(basis, grid, H0, tol, max_iter, make_step, damping):
    """The loop of both solvers on the route of _column_start: the column
    route (_column_route), whose forms are their diagonals until the exit,
    or the whole grid (_solver_parts), with B(H) from the ring table if
    _ring_start holds and from a held chart otherwise.  Only ``evaluate(H,
    eig)``, the iterate at H (from the eigenpairs ``eig`` a T-step gives,
    or from one eigh of H), and ``jacobian(x, directions)`` differ; next
    to the ring table the Jacobian's chart is built at its first call.
    ``make_step(column, jacobian)`` gives ``step(x, history, evaluate,
    trial)``, which returns (kind, rejected, damping, next iterate or
    None); ``trial(H)`` is the iterate at H det-normalized, or None when
    it is rejected.

    Returns (final BalanceState, history): converged below ``tol``,
    diverged (spread ratio past threshold with a long monotone m2
    decrease), max_iter, or stalled when no step was found.
    """
    H0 = _start_form(basis, H0)
    column = _column_start(grid, H0)
    if column:
        evaluate, jacobian = _column_route(basis, grid.orbits)
        H0 = H0.diagonal().real
    else:
        if _ring_start(basis, grid):
            b_matrix = kernels.rings(basis, grid)
            ld0 = b_matrix(np.eye(len(H0)))[1]
            chart = cache(partial(kernels.chart, basis, grid.nodes))
        else:
            q = kernels.chart(basis, grid.nodes)
            b_matrix, chart = partial(kernels.b_matrix, q, grid), lambda: q
            ld0 = kernels.logdet(kernels.field(q, grid))
        evaluate = lambda H, eig=None: _solver_parts(basis, grid, b_matrix, H, ld0, eig)
        jacobian = lambda x, directions: _grid_jacobian(basis, grid, chart(), x, directions)
    step = make_step(column, jacobian)

    def trial(H):
        # A singular or overflowing trial form is rejected, not raised.
        try:
            return evaluate(_det_normalize(H))
        except (SingularGram, kernels.NonFiniteChart):
            return None

    x = evaluate(_det_normalize(H0))
    history = []
    for it in range(max_iter + 1):
        row = HistoryRow(it, float(np.linalg.norm(x.s)), float(x.m2), float(x.spread), damping=damping)
        history.append(row)
        if row.residual < tol:
            flag = "converged"
        elif _divergence_hit(history):
            flag = "diverged"
        elif it == max_iter:
            flag = "max_iter"
        else:
            kind, rejected, damping, y = step(x, history, evaluate, trial)
            history[-1] = replace(row, step=kind, rejected=rejected)
            if y is not None:
                x = y
                continue
            flag, it = "stalled", it + 1  # the state counts the step not found
        n = basis.dimension
        H, s = (np.diag(v).astype(complex) for v in (x.H, x.s)) if column else (x.H, x.s)
        return BalanceState(H, it, s + (basis.rank / n) * np.eye(n), row.residual, row.m2,
                            row.spread, flag), history


def t_iterate(basis: SectionBasis, grid: QuadratureGrid, H0: np.ndarray, tol: float = 1e-10, *,
              max_iter: int):
    """Run the T-operator to convergence or divergence.

    Returns (final BalanceState, history) where history rows carry
    (iter, residual, m2, spread, step, rejected, damping).
    """
    def step(x, history, evaluate, trial):
        return "t", 0, 0.0, evaluate(*t_operator(basis, x.b))

    return _solve(basis, grid, H0, tol, max_iter, lambda column, jacobian: step, 0.0)


def _herm_basis(n: int) -> np.ndarray:
    """Real basis of the trace-free hermitian n x n matrices, the LM
    directions of the whole grid, as an (n^2 - 1, n, n) stack."""
    i, j = np.triu_indices(n, 1)
    k, a, s = np.arange(len(i)), np.arange(n - 1), 1.0 / np.sqrt(2.0)
    out = np.zeros((2 * len(i) + n - 1, n, n), dtype=complex)
    out[2 * k, i, j] = out[2 * k, j, i] = s
    out[2 * k + 1, i, j], out[2 * k + 1, j, i] = 1j * s, -1j * s
    out[2 * len(i) + a, a, a], out[2 * len(i) + a, a + 1, a + 1] = s, -s
    return out


def _diagonal_directions(n: int) -> np.ndarray:
    """The column route's directions (e_a - e_{a+1}) / sqrt 2, the diagonals
    of the last N - 1 of _herm_basis(N), as a real (N - 1, N) matrix."""
    return (np.eye(n - 1, n) - np.eye(n - 1, n, 1)) / np.sqrt(2.0)


def _b_derivatives(basis, grid, q, wh, dh):
    """dB = -(1/Vol) int P dH P for a stack dH of shape (D, N, N), with P
    from the held chart q and the whitening W of h, an (r, r, M) stack.
    t4[(k, l), (i, j)] = sum_x w P_ik P_lj is C S C^T, gathered from the
    real moments S = sum_x w p p^T of the coordinates p of P
    (kernels.p_coordinates), as each P_ik reads one coordinate or two.
    S is one real syrk per block of at most kernels.BLOCK nodes, the one
    node-block loop of the lab, which bounds the (N^2, B) coordinates
    (lm_memory_check), of w^(1/2) P from W w^(1/4).  The contraction with
    every dH is one more GEMM."""
    n, w = basis.dimension, grid.weights / grid.volume
    s = np.zeros((n * n, n * n))
    for start in range(0, len(w), kernels.BLOCK):
        sl = slice(start, start + kernels.BLOCK)
        p = kernels.p_coordinates(q[..., sl], wh[..., sl] * w[sl] ** 0.25)
        s += p @ p.T
    # P_ik = a_ik p_u + i b_ik p_v: u the diagonal or Re coordinate of P_ik, v its Im one
    i, j = np.triu_indices(n, 1)
    u = np.diag(np.arange(n))
    u[i, j] = u[j, i] = n + np.arange(len(i))
    b = np.sqrt(0.5) * np.sign(np.arange(n) - np.arange(n)[:, None])
    a, v = np.where(b == 0, 1.0, np.sqrt(0.5)), np.where(b == 0, u, u + len(i))
    ik, lj = (lambda x: x.T[:, None, :, None]), (lambda x: x[None, :, None, :])  # at [k, l, i, j]
    t4 = np.empty((n, n, n, n), dtype=complex)
    t4.real = s[ik(u), lj(u)] * ik(a) * lj(a) - s[ik(v), lj(v)] * ik(b) * lj(b)
    t4.imag = s[ik(u), lj(v)] * ik(a) * lj(b) + s[ik(v), lj(u)] * ik(b) * lj(a)
    return -(dh.reshape(-1, n * n) @ t4.reshape(n * n, n * n)).reshape(dh.shape)


def _grid_jacobian(basis, grid, q, x, directions):
    """(J, r) on the whole grid at x: the real and imaginary parts of dS
    per direction dA, dH = (dA H + H dA) / 2, dB from _b_derivatives
    and dsq from _sqrt_frechet, and those of S."""
    wh, lam, v = x.parts
    dh = 0.5 * (directions @ x.H + x.H @ directions)
    db = _b_derivatives(basis, grid, q, wh, dh)
    dsq = _sqrt_frechet(lam, v, dh)
    ds = (dsq @ x.b @ x.sq + x.sq @ db @ x.sq + x.sq @ x.b @ dsq).reshape(len(dh), -1)
    return np.concatenate([ds.real, ds.imag], axis=1).T, np.concatenate([x.s.real.ravel(), x.s.imag.ravel()])


def _sqrt_frechet(lam, v, dh):
    """Daleckii-Krein derivative of the hermitian square root."""
    sq = np.sqrt(lam)
    denom = sq[:, None] + sq[None, :]
    inner = (v.conj().T @ dh @ v) / denom
    return v @ inner @ v.conj().T


def _expm_herm(a: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(a)
    return (v * np.exp(lam)) @ v.conj().T


_expm_diagonal = np.exp  # the column route's exponential map: e^A of a diagonal A, as a vector


def lm_minimize(basis: SectionBasis, grid: QuadratureGrid, H0: np.ndarray, tol: float = 1e-10, *,
                max_iter: int):
    """Damped least-squares minimization of the center-of-mass residual.

    Each accepted step re-centers the iterate, H <- e^{A/2} H e^{A/2}
    with A hermitian trace-free (N^2 - 1 directions; H e^A along the N - 1
    diagonal ones on the column route), so the Jacobian is needed at A =
    0 alone, in closed form: dB = -(1/Vol) int P dH P with P = Q h^{-1}
    Q*, or d(int p)/d log H on the column route.  Past LM_MEMORY_BUDGET
    lm_memory_check refuses it.

    A trial step is accepted only when it cuts the Frobenius residual by
    more than the relative margin LM_DECREASE_MARGIN without raising m2,
    so steps that move roundoff alone are rejected.  When the model has
    no descent direction, |J^T r| <= LM_STATIONARY |J|_F |r|, the damping
    ladder is skipped for the m2 descent fallback, as after every
    rejected trial.

    Returns (final BalanceState, history); divergence (spread ratio past
    threshold with a long monotone m2 decrease) is flagged, not raised.
    """
    n = basis.dimension
    lm_memory_check(basis, grid, H0)

    def make_step(column, jacobian):
        directions = _diagonal_directions(n) if column else _herm_basis(n)
        return partial(step, column, jacobian, directions)

    def step(column, jacobian, directions, x, history, evaluate, trial):
        lam_damp = history[-1].damping
        # After a run of fallback steps the least-squares model is known
        # to be unproductive; only re-probe it occasionally.
        stuck = len(history) > 3 and all(row.step == "fallback" for row in history[-4:-1])
        tries = 0
        if not (stuck and history[-1].iteration % 10 != 0):
            jac, rvec = jacobian(x, directions)
            jtj = jac.T @ jac
            jtr = jac.T @ rvec
            descent = np.isfinite(jtj).all() and np.isfinite(jtr).all() and (
                np.linalg.norm(jtr) > LM_STATIONARY * np.linalg.norm(jac) * np.linalg.norm(rvec))
            tries = 12 if descent else 0
        for tried in range(tries):
            lhs = jtj + lam_damp * (np.diag(np.diag(jtj)) + 1e-14 * np.eye(jtj.shape[0]))
            y = None
            try:
                delta = np.linalg.solve(lhs, -jtr)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.isfinite(delta).all():
                if column:
                    y = trial(x.H * _expm_diagonal(delta @ directions))
                else:
                    expa = _expm_herm(0.5 * np.tensordot(delta, directions, axes=1))
                    y = trial(expa @ x.H @ expa)
            if y is None:
                lam_damp = min(lam_damp * 10.0, 1e12)
                continue
            # Accept only steps that also do not increase the energy, so
            # runs without a balanced form keep a monotone m2 signature.
            if np.linalg.norm(y.s) < (1.0 - LM_DECREASE_MARGIN) * np.linalg.norm(x.s) and (
                    y.m2 <= x.m2 + 1e-13 * (1.0 + abs(x.m2))):
                return "lm", tried, max(lam_damp / 3.0, 1e-12), y
            lam_damp = min(lam_damp * 4.0, 1e12)
        # The residual landscape is flat along destabilizing directions
        # (no balanced form exists there), so fall back to steepest
        # descent of m2 itself: direction -(M - (tr M / N) I) in the
        # sigma-frame.  On stable cases this never fires; on unstable
        # ones it drives the characteristic spread growth.  On the column
        # route M = diag(int p) and the step is H e^zeta.
        if column:
            mass = x.parts[1]
            zeta = -(mass - mass.mean())
        else:
            m_now = x.sq @ x.b @ x.sq
            zeta = -(m_now - (np.trace(m_now) / n) * np.eye(n))
            zeta = 0.5 * (zeta + zeta.conj().T)
        for halving in range(20):
            y = trial(x.H * _expm_diagonal(0.5**halving * zeta) if column else
                      x.sq @ _expm_herm(0.5**halving * zeta) @ x.sq)
            if y is not None and y.m2 < x.m2:
                return "fallback", tries, lam_damp, y
        return "none", tries, lam_damp, None

    return _solve(basis, grid, H0, tol, max_iter, make_step, 1e-3)


# ---------------------------------------------------------------------------
# Monitors and verdicts


def convexity_monitor(values) -> float:
    """The smallest second difference of uniformly spaced energy samples,
    nonnegative up to roundoff for a convex energy."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        raise ValueError("need at least 3 uniformly spaced samples")
    second = v[2:] - 2.0 * v[1:-1] + v[:-2]
    return float(second.min())


def divergence_detect(history) -> str:
    """Classify a solver history by the solvers' own stopping rule:
    converged below residual 1e-8, unstable-like exactly when
    _divergence_hit holds; anything else is Inconclusive (a semistable
    bundle on P^1 splits into summands of one degree and is balanced, so
    no lab input diverges with flat m2)."""
    if len(history) < 20:
        raise Inconclusive("need at least 20 iterations of history")
    if history[-1].residual < 1e-8:
        return "converged"
    if _divergence_hit(history):
        return "unstable-like"
    raise Inconclusive("history matches neither convergence nor divergence pattern")


def iterate_slope(history, weight_range: float):
    """Fitted slope of m2 against the iterate-path time proxy
    t = spread / (2 * weight_range), over the trailing 40% of the run."""
    t = np.asarray([row.spread for row in history]) / (2.0 * weight_range)
    m2 = np.asarray([row.m2 for row in history])
    n0 = int(0.6 * len(t))
    a = np.stack([t[n0:], np.ones(len(t) - n0)], axis=-1)
    coef, *_ = np.linalg.lstsq(a, m2[n0:], rcond=None)
    return float(coef[0])


# ---------------------------------------------------------------------------
# Delta diagnostics


def hermitian_einstein_catalog(basis: SectionBasis, grid: QuadratureGrid) -> np.ndarray:
    """Catalog Hermitian-Einstein reference at the working level.

    For a direct sum of line bundles of one degree on P^1 the
    L2-orthonormal reference h_ref = Q*Q is itself Hermitian-Einstein:
    its curvature is mu I omega.  Unequal degrees (h_ref of O(0)+O(2) has
    curvature diag(0, 2) omega) and other bundles raise MissingHE.
    """
    if basis.bundle.kind != "split_p1" or len(set(basis.bundle.degrees)) > 1:
        raise MissingHE("no catalog Hermitian-Einstein metric for this bundle")
    return h_ref_field(basis, grid)


SPECTRAL_CONSTANT = 4.0 * np.pi  # first nonzero Laplace eigenvalue of P^1, FS form of volume 1 (l = 1)


def _pinch_coefficient(delta: float) -> float:
    """(delta - 1 - log delta) / (log delta)^2, continuously 1/2 at 1."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    ld = np.log(delta)
    if abs(ld) < 1e-6:
        return 0.5
    return float((delta - 1.0 - ld) / ld**2)


def delta_diagnostic(h_min: np.ndarray, h_he: np.ndarray, grid: QuadratureGrid,
                     spectral_c: float) -> DeltaDiagnostic:
    """Eigenvalue-pinch diagnostic of a minimizer against the HE reference,
    both per-node metrics of shape (M, r, r).

    delta is the infimum over nodes of lambda_min/lambda_max of
    h_min h_HE^{-1}; v is the matrix logarithm of the symmetrized ratio,
    v_bar its trace average, and the lower bound is
    pinch(delta) * C^{-1} * ||v - v_bar||^2 with C = ``spectral_c``,
    SPECTRAL_CONSTANT on P^1.
    """
    lamb, vb = np.linalg.eigh(h_he)
    if lamb.min() <= 0:
        raise ValueError("reference metric must be positive definite")
    isq = (vb / np.sqrt(lamb)[:, None, :]) @ vb.conj().transpose(0, 2, 1)
    ratio = isq @ h_min @ isq
    ratio = 0.5 * (ratio + np.conj(np.swapaxes(ratio, -1, -2)))
    lam, vr = np.linalg.eigh(ratio)
    if lam.min() <= 0:
        raise ValueError("metric ratio must be positive definite")
    delta = float((lam[:, 0] / lam[:, -1]).min())
    logs = np.log(lam)
    r = h_min.shape[-1]
    tr_v = logs.sum(axis=-1)
    v_bar = grid.integrate(tr_v) / (r * grid.volume)
    v_norm2 = grid.integrate(((logs - v_bar) ** 2).sum(axis=-1))
    bound = _pinch_coefficient(delta) * v_norm2 / spectral_c
    return DeltaDiagnostic(delta=delta, lower_bound=float(bound))
