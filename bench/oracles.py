"""Exact and closed-form values the benchmark checks `bml` against.

Nothing here imports `bml`: every oracle is derived from the definitions
(see the docstrings) and computed with `fractions.Fraction` or plain
numpy, so a change to the program cannot move the values it is checked
against.  `test_oracles.py` tests each one on its own.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Correct significant digits are capped at double precision: -log10(2^-52).
DIGITS_CAP = 52 * math.log10(2.0)


def digits(value, exact, scale=None) -> float:
    """Correct significant digits of ``value`` against ``exact``.

    The error is taken relative to ``max(|exact|, scale)``; ``scale``
    gives a reference size for comparisons whose exact value is zero.
    """
    ref = max(abs(float(exact)), float(scale or 0.0))
    err = abs(float(value) - float(exact))
    if err == 0.0:
        return DIGITS_CAP
    if ref == 0.0:
        return 0.0
    return min(DIGITS_CAP, max(0.0, -math.log10(err / ref)))


# ---------------------------------------------------------------------------
# Two-step degenerations of split bundles on P^1


def two_step_weights(sub_sections: int, rest_sections: int) -> tuple:
    """Trace-free weights (w1, w2) with max |w| = 1: w1 on a block of
    ``sub_sections`` sections, w2 on the ``rest_sections`` others."""
    top = max(sub_sections, rest_sections)
    return Fraction(rest_sections, top), Fraction(-sub_sections, top)


def m_na_two_step(w1, w2, rank_f: int, deg_f, rank_e: int, deg_e) -> Fraction:
    """Non-Archimedean slope of a two-step filtration 0 < F < E.

    The integer grades between -j w1 and -j w2 all see the step F, so the
    defining sum (2/j) sum_q rk(E_q) (mu(E) - mu(E_q)) collapses to
    2 (w1 - w2) rk(F) (mu(E) - mu(F)).
    """
    w1, w2 = Fraction(w1), Fraction(w2)
    return 2 * (w1 - w2) * rank_f * (Fraction(deg_e, rank_e) - Fraction(deg_f, rank_f))


def weight_sum(weights, graded_ranks) -> Fraction:
    """sum_i w_i rk(gr_i E): half the log-det slope of a filtration."""
    return sum((Fraction(w) * g for w, g in zip(weights, graded_ranks)), Fraction(0))


def m2_block_path(t: float, weights, ranks) -> float:
    """Log-det energy along a generator acting by the constant weight w_i
    on the sections of the i-th block of summands (total rank rk_i).

    The raw metric is then block diagonal with blocks e^{2 w_i t} times
    the reference blocks, so log det(h h_ref^{-1}) = 2t sum_i w_i rk_i at
    every point and M2(t) is exactly linear in t.
    """
    return 2.0 * t * float(sum(Fraction(w) * r for w, r in zip(weights, ranks)))


def split_combined_slope(weights, degrees, ranks, mu_e) -> Fraction:
    """Slope of M1 + mu(E) M2 along the same block generator.

    The honest metric is block diagonal with blocks e^{-2 w_i t} g_i, so
    g^{-1} dg/dt = -2 w_i on block i while the curvature of each block is
    unchanged; its integral is the block's degree.  Hence
    dM1/dt = -2 sum w_i deg_i and dM2/dt = 2 sum w_i rk_i.
    """
    mu_e = Fraction(mu_e)
    return sum(
        (-2 * Fraction(w) * (d - mu_e * r) for w, d, r in zip(weights, degrees, ranks)),
        Fraction(0),
    )


def line_two_weight_m2(t: float) -> float:
    """M2 along diag(1, -1) on the sections of O(0) at level 1.

    With u = |z|^2/(1+|z|^2) uniform on [0,1] under the normalized
    Fubini-Study measure, the integrand is log(e^{2t}(1-u) + e^{-2t} u),
    whose integral is 2t coth(2t) - 1.
    """
    return 2.0 * t / math.tanh(2.0 * t) - 1.0 if t > 0 else 0.0


# ---------------------------------------------------------------------------
# Chart evaluation and the center of mass


def split_q(degrees, k: int, z: np.ndarray) -> np.ndarray:
    """Q(z), shape (M, N, r), of the L2-orthonormal monomial basis of
    H^0(O(a_1)(k) + ... + O(a_r)(k)), summand-major.

    With d = a + k, int |z^m|^2 (1+|z|^2)^{-d} dmu = 1/((d+1) C(d,m)) for
    the unit-volume Fubini-Study measure, hence the coefficients.
    """
    z = np.asarray(z, dtype=complex).ravel()
    dims = [a + k + 1 for a in degrees]
    q = np.zeros((z.size, sum(dims), len(degrees)), dtype=complex)
    off = 0
    for col, n in enumerate(dims):
        d = n - 1
        coef = np.sqrt([(d + 1) * math.comb(d, m) for m in range(n)])
        q[:, off : off + n, col] = coef * z[:, None] ** np.arange(n)
        off += n
    return q


def _sqrt_psd(a: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(a)
    return (v * np.sqrt(lam)) @ v.conj().T


def center_of_mass(q: np.ndarray, weights: np.ndarray, volume: float, H: np.ndarray):
    """M(H) = H^{1/2} B(H) H^{1/2}, B(H) = (1/Vol) sum_x w_x Q h^{-1} Q*,
    h = Q* H Q; returns (M, Frobenius distance of M from (r/N) I)."""
    n, r = q.shape[1], q.shape[2]
    qs = np.conj(np.swapaxes(q, 1, 2))
    h = qs @ H @ q
    p = q @ np.linalg.solve(h, qs)
    b = np.tensordot(weights / volume, p, axes=1)
    s = _sqrt_psd(0.5 * (H + H.conj().T))
    m = s @ b @ s
    m = 0.5 * (m + m.conj().T)
    return m, float(np.linalg.norm(m - (r / n) * np.eye(n)))


def log_eig_second_difference(H: np.ndarray) -> float:
    """Largest second difference of the sorted log-eigenvalues of H.

    Balanced forms on a line bundle of P^1 are rho(g)* rho(g) for g in
    SL(2, C) acting on Sym^d in the orthonormal monomial basis; by
    SU(2)-equivariance this is unitarily conjugate to rho(diag(a, 1/a))^2,
    whose log-eigenvalues 2(d - 2j) log a are equally spaced.
    """
    le = np.log(np.linalg.eigvalsh(0.5 * (H + H.conj().T)))
    return float(np.abs(np.diff(le, 2)).max()) if le.size > 2 else 0.0


# ---------------------------------------------------------------------------
# The subgeodesic right-hand side


def subgeodesic_rhs(q_x: np.ndarray, zeta: np.ndarray, t: float) -> np.ndarray:
    """F*F at one point for the path H(t) = e^{2 zeta t}.

    With A = e^{zeta t} Q, h = A*A, u = 2 zeta and G = h^{-1} A* u A,
    F = (u A - A G) h^{-1/2}; F*F is hermitian positive semidefinite.
    """
    lam, v = np.linalg.eigh(0.5 * (zeta + zeta.conj().T))
    a = (v * np.exp(lam * t)) @ v.conj().T @ q_x
    u = 2.0 * zeta
    h = a.conj().T @ a
    g = np.linalg.solve(h, a.conj().T @ u @ a)
    lh, vh = np.linalg.eigh(0.5 * (h + h.conj().T))
    h_inv_half = (vh / np.sqrt(lh)) @ vh.conj().T
    f = (u @ a - a @ g) @ h_inv_half
    return f.conj().T @ f
