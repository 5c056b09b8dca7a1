"""End-to-end acceptance checks.

Each criterion is an independent callable returning a CriterionResult;
``run_all`` executes them in order.  The checks combine exact rational
oracles (identities that must hold bit-for-bit) with fitted asymptotics
at fixed tolerances, and they are the backing for both the test suite
and the ``bml verify`` subcommand.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import balance as bl
from . import bergman as bg
from . import bundles as bd
from . import donaldson as don
from . import exactsheaf as xs
from .quadrature import build_grid_p1, build_grid_p2


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float
    gating: bool = True


def format_line(res: CriterionResult) -> str:
    tag = "PASS" if res.passed else ("SKIP" if not res.gating and "skipped" in res.detail else "FAIL")
    return f"criterion {res.index} [{tag}] {res.name}: {res.detail} ({res.seconds:.1f}s)"


@lru_cache(maxsize=1)
def _grid_default():
    return build_grid_p1()


@lru_cache(maxsize=1)
def _grid_light():
    return build_grid_p1(n_radial=6, n_angular=16, depth=12)


def _closed_form_m2(t: float) -> float:
    return 2.0 * t / np.tanh(2.0 * t) - 1.0 if t > 0 else 0.0


# ---------------------------------------------------------------------------
# 1. exact identity suite


def _random_filtration(rng: np.random.Generator) -> xs.FiltrationSpec:
    while True:
        n_sum = int(rng.integers(1, 5))
        degs = tuple(int(rng.integers(-2, 5)) for _ in range(n_sum))
        ambient = xs.split_p1(degs)
        nu = int(rng.integers(1, min(n_sum, 3) + 1))
        ranks = sorted(int(rng.integers(1, n_sum + 1)) for _ in range(nu - 1)) + [n_sum]
        steps = tuple(xs.split_p1(degs[:r]) for r in ranks)
        k = xs.regularity_catalog(degs) + int(rng.integers(0, 3))
        h0 = ambient.h0_at(k)
        if h0 <= nu:
            continue
        if nu == 1:
            v_dims = (h0,)
            weights = (Fraction(0),)
        else:
            picks = rng.choice(np.arange(1, h0), size=nu - 1, replace=False)
            v_dims = tuple(sorted(int(v) for v in picks)) + (h0,)
            mult = [v_dims[0]] + [b - a for a, b in zip(v_dims, v_dims[1:])]
            lead = sorted(
                {Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(nu - 1)},
                reverse=True,
            )
            if len(lead) != nu - 1:
                continue
            last = -sum(w * m for w, m in zip(lead, mult[:-1])) / mult[-1]
            if last >= lead[-1]:
                continue
            weights = tuple(lead) + (last,)
            top = max(abs(w) for w in weights)
            if top == 0:
                continue
            weights = tuple(w / top for w in weights)
        try:
            return xs.FiltrationSpec(
                weights=weights, steps=steps, v_dims=v_dims, ambient=ambient, level=k
            )
        except ValueError:
            continue


def criterion_1() -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    worst = None
    for _ in range(1000):
        filt = _random_filtration(rng)
        lhs, rhs = xs.weight_sum_identity(filt)
        if rhs != 2 * lhs:
            worst = filt
            break
    two_step_ok = True
    for _ in range(200):
        n_sum = int(rng.integers(2, 5))
        degs = tuple(int(rng.integers(-2, 5)) for _ in range(n_sum))
        r1 = int(rng.integers(1, n_sum))
        ambient = xs.split_p1(degs)
        sub = xs.split_p1(degs[:r1])
        k = xs.regularity_catalog(degs) + 1
        v1 = sum(xs.h0_p1(d + k) for d in degs[:r1])
        v2 = ambient.h0_at(k)
        m1, m2 = v1, v2 - v1
        top = max(m1, m2)
        w1, w2 = Fraction(m2, top), Fraction(-m1, top)
        filt = xs.FiltrationSpec(
            weights=(w1, w2), steps=(sub, ambient), v_dims=(v1, v2), ambient=ambient, level=k
        )
        closed = 2 * (w1 - w2) * sub.rank * (xs.mu(ambient) - xs.mu(sub))
        if xs.m_na(filt) != closed:
            two_step_ok = False
            break
    passed = worst is None and two_step_ok
    detail = "1000 weight-sum identities and 200 two-step closed forms exact"
    if not passed:
        detail = "identity failure on a randomized filtration"
    return CriterionResult(1, "exact identity suite", passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 2. closed-form log-det energy


def criterion_2() -> CriterionResult:
    t0 = time.perf_counter()
    grid = _grid_default()
    basis = bd.section_basis(bd.split(0), 1)
    ps = bg.one_ps(np.diag([1.0, -1.0]))
    ts = [0.5, 1.0, 2.0, 5.0, 10.0]
    m2 = don.m2_along_path(basis, grid, ps, ts)
    errs = [abs(v - _closed_form_m2(t)) for t, v in zip(ts, m2)]
    fit_ts = np.linspace(1.0, 10.0, 10)
    fit_m2 = don.m2_along_path(basis, grid, ps, fit_ts)
    fit = don.asymptotic_slope_fit(fit_ts, fit_m2, t_min=6.0, predicted=2.0)
    passed = max(errs) <= 1e-6 and abs(fit.slope - 2.0) <= 1e-4
    detail = f"max closed-form error {max(errs):.2e}, fitted slope {fit.slope:.6f}"
    return CriterionResult(2, "closed-form log-det energy", passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 3. log-det slope on the destabilized pair


@lru_cache(maxsize=1)
def _catalog_pair():
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.two_step_one_ps(basis, [1], (2.0 / 3.0, -1.0))
    return basis, ps


def criterion_3() -> CriterionResult:
    t0 = time.perf_counter()
    basis, ps = _catalog_pair()
    grid = _grid_default()
    ts = np.linspace(1.25, 15.0, 12)
    m2 = don.m2_along_path(basis, grid, ps, ts)
    fit = don.asymptotic_slope_fit(ts, m2, t_min=9.0, predicted=-2.0 / 3.0)
    passed = abs(fit.slope + 2.0 / 3.0) <= 0.01 * (2.0 / 3.0)
    detail = f"fitted slope {fit.slope:.8f} vs -2/3"
    return CriterionResult(3, "log-det slope, destabilized pair", passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 4. combined-energy slope and zero-slope boundedness


def criterion_4() -> CriterionResult:
    t0 = time.perf_counter()
    basis, ps = _catalog_pair()
    grid = _grid_default()
    mu_e = 1.0
    ts = np.linspace(1.5, 15.0, 10)
    m1 = don.m1_curve(basis, grid, ps, ts, n_path=64)
    m2 = don.m2_along_path(basis, grid, ps, ts)
    mdon = m1 + mu_e * m2
    fit = don.asymptotic_slope_fit(ts, mdon, t_min=9.0, predicted=-10.0 / 3.0)
    slope_ok = abs(fit.slope + 10.0 / 3.0) <= 0.02 * (10.0 / 3.0)

    # rank-one bundle with a generator whose leading eigenspace already
    # generates every fibre: the filtration saturates trivially and the
    # combined energy must stay bounded
    basis0 = bd.section_basis(bd.split(0), 2, orthonormal=False)
    ps0 = bg.one_ps(np.diag([0.5, -1.0, 0.5]))
    ts0 = np.linspace(0.0, 20.0, 9)
    mdon0 = don.m1_curve(basis0, grid, ps0, ts0, n_path=64)
    bounded_ok = float(np.abs(mdon0).max()) <= 1.0
    passed = slope_ok and bounded_ok
    detail = (
        f"fitted slope {fit.slope:.6f} vs -10/3; trivial-saturation sup "
        f"{float(np.abs(mdon0).max()):.4f} <= 1"
    )
    return CriterionResult(4, "combined-energy slope and boundedness", passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 5. subgeodesic positivity


def criterion_5() -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    cases = [
        bd.section_basis(bd.split(0), 1),
        bd.section_basis(bd.split(2), 1),
        bd.section_basis(bd.split(0, 2), 3),
        bd.section_basis(bd.split(1, 1), 2),
    ]
    worst, min_eig = 0.0, np.inf
    for i in range(200):
        basis = cases[i % len(cases)]
        ps = bg.random_two_weight_ps(basis.dimension, rng)
        t = float(rng.uniform(0.1, 3.0))
        x = complex(rng.normal(), rng.normal())
        _, _, resid, eig = bg.subgeodesic_residual(basis, ps, t, x)
        worst = max(worst, resid)
        min_eig = min(min_eig, eig)
    passed = worst <= 1e-5 and min_eig >= -1e-12
    detail = f"max residual {worst:.2e}, min eigenvalue {min_eig:.2e}"
    return CriterionResult(5, "subgeodesic positivity", passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 6. compressed-multiplication commutation


def criterion_6() -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    split_cases = [
        (bd.section_basis(bd.split(0, 2), 3), [1]),
        (bd.section_basis(bd.split(1, 1), 2), [0]),
    ]
    line_cases = [bd.section_basis(bd.split(0), 1), bd.section_basis(bd.split(2), 1)]
    worst = 0.0
    for i in range(1000):
        mode = i % 3
        if mode == 0:
            basis, sub = split_cases[i % len(split_cases)]
            n1 = sum(basis.data[c][1].size for c in sub)
            n2 = basis.dimension - n1
            ps = bg.two_step_one_ps(basis, sub, (n2 / max(n1, n2), -n1 / max(n1, n2)))
        else:
            basis = line_cases[i % len(line_cases)]
            ps = bg.random_two_weight_ps(basis.dimension, rng)
        t = float(rng.uniform(0.1, 2.0))
        x = complex(rng.normal(), rng.normal())
        worst = max(worst, bg.commutator_residual(basis, ps, t, x))
    passed = worst <= 1e-10
    detail = f"max normalized commutator {worst:.2e} over 1000 draws"
    return CriterionResult(6, "compressed-multiplication commutation", passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 7. balanced existence / nonexistence


def criterion_7() -> CriterionResult:
    t0 = time.perf_counter()
    grid = _grid_light()
    rng = np.random.default_rng(7)
    agree, conv_ok = [], []
    for degs, k in (((2,), 2), ((3,), 2)):
        basis = bd.section_basis(bd.split(*degs), k)
        n = basis.dimension
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H0 = a @ a.conj().T + 0.5 * np.eye(n)
        st_t, _ = bl.t_iterate(basis, grid, H0, tol=1e-10, max_iter=200)
        st_lm, _ = bl.lm_minimize(basis, grid, H0, tol=1e-10, max_iter=100)
        conv_ok.append(st_t.flag == "converged" and st_lm.flag == "converged")
        agree.append(float(np.linalg.norm(st_t.H - st_lm.H)))
    basis11 = bd.section_basis(bd.split(1, 1), 2)
    st_t, _ = bl.t_iterate(basis11, grid, np.eye(basis11.dimension), tol=1e-10, max_iter=200)
    st_lm, _ = bl.lm_minimize(basis11, grid, np.eye(basis11.dimension), tol=1e-10, max_iter=100)
    conv_ok.append(st_t.flag == "converged" and st_lm.flag == "converged")
    agree.append(float(np.linalg.norm(st_t.H - st_lm.H)))

    basis02 = bd.section_basis(bd.split(0, 2), 3)
    st_dt, h_dt = bl.t_iterate(basis02, grid, np.eye(basis02.dimension), tol=1e-10, max_iter=300)
    st_dl, h_dl = bl.lm_minimize(basis02, grid, np.eye(basis02.dimension), tol=1e-10, max_iter=200)
    div_ok = (
        st_dt.flag == "diverged"
        and st_dl.flag == "diverged"
        and st_dt.spread_ratio > 1e3
        and st_dl.spread_ratio > 1e3
        and bl.divergence_detect(h_dt) == "unstable-like"
        and bl.divergence_detect(h_dl) == "unstable-like"
    )
    passed = all(conv_ok) and max(agree) < 1e-6 and div_ok
    detail = (
        f"stable residuals < 1e-10, solver agreement {max(agree):.2e}, "
        f"divergent spreads {st_dt.spread_ratio:.1e}/{st_dl.spread_ratio:.1e}"
    )
    return CriterionResult(7, "balanced existence and nonexistence", passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 8. convexity along executed paths


def criterion_8() -> CriterionResult:
    t0 = time.perf_counter()
    grid = _grid_light()
    rng = np.random.default_rng(8)
    worst = np.inf
    runs = []
    basis, ps = _catalog_pair()
    ts = np.linspace(0.0, 6.0, 25)
    runs.append(don.m2_along_path(basis, grid, ps, ts))
    basis0 = bd.section_basis(bd.split(0), 1)
    runs.append(don.m2_along_path(basis0, grid, bg.one_ps(np.diag([1.0, -1.0])), ts))
    for _ in range(5):
        z = rng.normal(size=(basis.dimension, basis.dimension)) + 1j * rng.normal(
            size=(basis.dimension, basis.dimension)
        )
        z = 0.5 * (z + z.conj().T)
        z -= (np.trace(z).real / basis.dimension) * np.eye(basis.dimension)
        runs.append(don.m2_along_path(basis, grid, bg.one_ps(z), ts))
    runs.append(np.zeros(10))
    for values in runs:
        worst = min(worst, bl.convexity_monitor(values).min_second_difference)
    passed = worst >= -1e-8
    detail = f"min second difference {worst:.2e} over {len(runs)} paths"
    return CriterionResult(8, "energy convexity along paths", passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 9. pinch diagnostics inequality


def criterion_9() -> CriterionResult:
    t0 = time.perf_counter()
    grid = _grid_light()
    c = bl.spectral_constant(grid)[0]
    c_ok = abs(c - 4.0 * np.pi) <= 0.02 * 4.0 * np.pi
    margins = []
    for a_deg in (0, 2):
        basis = bd.section_basis(bd.split(a_deg), 1)
        he = bl.hermitian_einstein_catalog(basis, grid)
        st, _ = bl.t_iterate(basis, grid, np.eye(basis.dimension), tol=1e-12, max_iter=60)
        hmin = bg.fs_metric(basis, grid, bg.HermitianForm(matrix=st.H.astype(complex)))
        diag = bl.delta_diagnostic(hmin, he, grid, spectral_c=c)
        val = bl.donaldson_value_line(basis, grid, st.H, he)
        margins.append(val - diag.lower_bound)
        # non-vacuous version on a deliberately unbalanced form
        n = basis.dimension
        w = np.linspace(0.6, -0.6, n)
        H = np.diag(np.exp(w - w.mean()))
        hp = bg.fs_metric(basis, grid, bg.HermitianForm(matrix=H.astype(complex)))
        dp = bl.delta_diagnostic(hp, he, grid, spectral_c=c)
        margins.append(bl.donaldson_value_line(basis, grid, H, he) - dp.lower_bound)
    passed = c_ok and min(margins) >= -1e-9
    detail = f"spectral constant {c:.6f}, min inequality margin {min(margins):.2e}"
    return CriterionResult(9, "pinch diagnostics inequality", passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 10. stretch: tangent-bundle balance on the surface grid (non-gating)


def criterion_10(force: bool = False) -> CriterionResult:
    t0 = time.perf_counter()
    if not force and os.environ.get("BML_RUN_STRETCH") != "1":
        return CriterionResult(
            10, "tangent-bundle balance (stretch)", True,
            "skipped (set BML_RUN_STRETCH=1 to run)", 0.0, gating=False,
        )
    grid = build_grid_p2(n_simplex=4, n_angular=8, depth=5)
    ok, resids = True, []
    for k in (1, 2):
        basis = bd.section_basis(bd.euler_tp2(), k)
        st, _ = bl.lm_minimize(basis, grid, np.eye(basis.dimension), tol=1e-6, max_iter=60)
        resids.append(st.residual)
        ok = ok and st.flag == "converged"
    detail = f"residuals {', '.join(f'{r:.2e}' for r in resids)}"
    return CriterionResult(10, "tangent-bundle balance (stretch)", ok, detail,
                           time.perf_counter() - t0, gating=False)


ALL = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all(include_stretch: bool = False):
    results = [fn() for fn in ALL]
    results.append(criterion_10(force=include_stretch))
    return results
