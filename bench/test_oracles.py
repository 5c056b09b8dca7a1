"""Tests of the benchmark's oracles, independent of `bml`.

    python3 -m pytest bench/test_oracles.py
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

import oracles as orc


def _grid(n_u=40, n_theta=48):
    """Gauss-Legendre in u = |z|^2/(1+|z|^2) times uniform angles: exact
    for the polynomial-in-u integrands of monomial sections."""
    x, w = np.polynomial.legendre.leggauss(n_u)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    z = (np.sqrt(u / (1.0 - u))[:, None] * np.exp(1j * theta)[None, :]).ravel()
    return z, np.repeat(wu, n_theta) / n_theta


def _log_det_ratio(q, H):
    qs = np.conj(np.swapaxes(q, 1, 2))
    return np.linalg.slogdet(qs @ H @ q)[1] - np.linalg.slogdet(qs @ q)[1]


def test_digits():
    assert orc.digits(2.0, 2) == orc.DIGITS_CAP
    assert orc.digits(1.001, 1) == pytest.approx(3.0)
    assert orc.digits(1e-10, 0.0, scale=1.0) == pytest.approx(10.0)
    assert orc.digits(5.0, 1) == 0.0


def test_two_step_weights_trace_free():
    for a, b in ((6, 4), (4, 6), (39, 37), (1, 1)):
        w1, w2 = orc.two_step_weights(a, b)
        assert w1 * a + w2 * b == 0 and max(abs(w1), abs(w2)) == 1 and w1 > w2


def _m_na_by_grades(w1, w2, rank_f, deg_f, rank_e, deg_e):
    """The defining sum (2/j) sum_q rk(E_q)(mu(E) - mu(E_q)) over integer
    grades, with E_q = F for -j w1 <= q < -j w2 and 0 below."""
    j = math.lcm(Fraction(w1).denominator, Fraction(w2).denominator)
    mu_e, mu_f = Fraction(deg_e, rank_e), Fraction(deg_f, rank_f)
    total = sum(rank_f * (mu_e - mu_f) for _ in range(int(-j * w1), int(-j * w2)))
    return Fraction(2, j) * total


def test_m_na_two_step():
    for k in (3, 7, 36):
        w = orc.two_step_weights(k + 3, k + 1)
        got = orc.m_na_two_step(*w, 1, 2, 2, 2)
        assert got == Fraction(-4 * (k + 2), k + 3) == _m_na_by_grades(*w, 1, 2, 2, 2)
    assert orc.m_na_two_step(*orc.two_step_weights(6, 4), 1, 2, 2, 2) == Fraction(-10, 3)
    w = orc.two_step_weights(5, 9)
    assert orc.m_na_two_step(*w, 2, 1, 3, 4) == _m_na_by_grades(*w, 2, 1, 3, 4)


def test_split_combined_slope_is_m_na():
    rng = np.random.default_rng(0)
    for _ in range(50):
        degrees = [int(d) for d in rng.integers(-2, 5, 2)]
        w = orc.two_step_weights(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        mu_e = Fraction(sum(degrees), 2)
        slope = orc.split_combined_slope(w, degrees, (1, 1), mu_e)
        assert slope == orc.m_na_two_step(*w, 1, degrees[0], 2, sum(degrees))


def test_weight_sum():
    assert orc.weight_sum((Fraction(2, 3), -1), (1, 1)) == Fraction(-1, 3)
    assert orc.weight_sum((1, Fraction(-1, 2)), (1, 2)) == 0


@pytest.mark.parametrize("k", [3, 10])
def test_m2_block_path_is_pointwise_exact(k):
    z, wts = _grid(8, 8)
    q = orc.split_q((2, 0), k, z)
    w = orc.two_step_weights(k + 3, k + 1)
    for t in (0.7, 4.0):
        s = np.concatenate([np.full(k + 3, float(w[0])), np.full(k + 1, float(w[1]))])
        ratio = _log_det_ratio(q, np.diag(np.exp(2.0 * t * s)))
        exact = orc.m2_block_path(t, w, (1, 1))
        assert exact == pytest.approx(-4.0 * t / (k + 3), rel=1e-14)
        assert np.abs(ratio - exact).max() < 1e-10
        assert float(np.dot(wts, ratio)) == pytest.approx(exact, rel=1e-12)


def test_line_two_weight_m2_against_quadrature():
    assert orc.line_two_weight_m2(0.0) == 0.0
    for t in (0.3, 2.0, 4.0):
        a, b = math.exp(2 * t), math.exp(-2 * t)
        val, _ = integrate.quad(lambda u: math.log(a * (1 - u) + b * u), 0.0, 1.0,
                                points=[a / (a + b)], epsabs=1e-13, limit=200)
        assert orc.line_two_weight_m2(t) == pytest.approx(val, abs=1e-10)


def test_split_q_is_orthonormal():
    z, w = _grid()
    for degrees, k in (((0,), 1), ((2,), 3), ((0, 2), 3)):
        q = orc.split_q(degrees, k, z)
        for col, a in enumerate(degrees):
            twist = (1.0 + np.abs(z) ** 2) ** -(a + k)
            gram = np.einsum("m,mi,mj->ij", w * twist, q[:, :, col], q[:, :, col].conj())
            rows = np.abs(q[:, :, col]).max(axis=0) > 0
            assert np.allclose(gram[np.ix_(rows, rows)], np.eye(rows.sum()), atol=1e-12)


def test_center_of_mass_trace_and_balanced_identity():
    z, w = _grid()
    rng = np.random.default_rng(1)
    for degrees, k in (((2,), 2), ((1, 1), 2)):
        q = orc.split_q(degrees, k, z)
        n, r = q.shape[1], q.shape[2]
        m, resid = orc.center_of_mass(q, w, 1.0, np.eye(n))
        assert resid < 1e-12 and np.trace(m).real == pytest.approx(r, rel=1e-13)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m, resid = orc.center_of_mass(q, w, 1.0, a @ a.conj().T + np.eye(n))
        assert np.trace(m).real == pytest.approx(r, rel=1e-12) and resid > 1e-3


def _sym_power(g, d):
    """Matrix of f(z) -> (cz+e)^d f((az+b)/(cz+e)) on O(d) in the
    orthonormal monomial basis c_m z^m."""
    (a, b), (c, e) = g
    coef = np.sqrt([(d + 1) * math.comb(d, m) for m in range(d + 1)])
    out = np.zeros((d + 1, d + 1), dtype=complex)
    for m in range(d + 1):
        poly = np.polynomial.polynomial.polymul(
            np.polynomial.polynomial.polypow([b, a], m),
            np.polynomial.polynomial.polypow([e, c], d - m))
        out[:, m] = coef[m] * np.asarray(poly, dtype=complex) / coef
    return out


def test_balanced_orbit_has_equally_spaced_log_eigenvalues():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g /= np.sqrt(np.linalg.det(g))
    rho = _sym_power(g, 4)
    assert orc.log_eig_second_difference(rho.conj().T @ rho) < 1e-9
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert orc.log_eig_second_difference(a @ a.conj().T + np.eye(5)) > 1e-3


def test_subgeodesic_rhs_is_psd_and_matches_derivative():
    rng = np.random.default_rng(3)
    q_x = orc.split_q((0, 2), 3, [0.4 - 0.3j])[0]
    n = q_x.shape[0]
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    zeta = 0.5 * (g + g.conj().T)
    zeta -= np.trace(zeta).real / n * np.eye(n)
    zeta /= np.abs(np.linalg.eigvalsh(zeta)).max()
    t, step = 0.8, 1e-4

    def expm(s):
        lam, v = np.linalg.eigh(zeta)
        return (v * np.exp(lam * s)) @ v.conj().T

    def g_of(s):
        h = q_x.conj().T @ expm(2 * s) @ q_x
        return np.linalg.solve(h, q_x.conj().T @ expm(2 * s) @ (2 * zeta) @ q_x)

    h = q_x.conj().T @ expm(2 * t) @ q_x
    lam, v = np.linalg.eigh(h)
    lhs = ((v * np.sqrt(lam)) @ v.conj().T) @ ((g_of(t + step) - g_of(t - step)) / (2 * step)) \
        @ ((v / np.sqrt(lam)) @ v.conj().T)
    rhs = orc.subgeodesic_rhs(q_x, zeta, t)
    assert np.linalg.eigvalsh(0.5 * (rhs + rhs.conj().T)).min() > -1e-12
    assert np.linalg.norm(lhs - rhs) < 1e-6 * (1.0 + np.linalg.norm(rhs))
