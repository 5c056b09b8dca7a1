"""End-to-end acceptance checks.

Each criterion is a row ``(index, name, check)`` of ``ROWS``, where
``check()`` returns ``(passed, detail)``; ``run(index)`` times one row
as a CriterionResult.  The checks combine exact rational oracles
(identities that must hold bit-for-bit) with fitted asymptotics at fixed
tolerances, and they are the backing for both the test suite and the
``bml verify`` subcommand.  Criteria 3, 4 and 5 are ``bml slope``,
``bml asymptote`` and ``bml subgeodesic`` runs: their checks read the
summaries of ``cli.run_slope``, ``cli.run_asymptote`` and
``cli.run_subgeodesic`` on the configs ``SLOPE``, ``ASYMPTOTE`` and
``SUBGEODESIC``, so each number is reproduced by commands.
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
from . import cli
from . import donaldson as don
from . import exactsheaf as xs
from .config import parse_config
from .quadrature import build_grid_p1, build_grid_p2

# the catalog path: O(0)+O(2) at k = 3 along its destabilizing two-step
# 1-PS, on the default grid
CATALOG_PATH = {"bundle": "split_p1:0,2", "k": 3, "ps": "two_step:1:2/3,-1", "t_end": 15.0}
SLOPE = parse_config({**CATALOG_PATH, "kind": "slope", "samples": 12, "tol": 0.01 * (2.0 / 3.0)})
ASYMPTOTE = parse_config({**CATALOG_PATH, "kind": "asymptote", "samples": 10, "tol": 0.02})
# 50 subgeodesic draws on each of four bundles
SUBGEODESIC = tuple(parse_config({"kind": "subgeodesic", "bundle": bundle, "k": k, "t_end": 3.0, "samples": 50,
                                  "tol": 1e-5, "seed": 5})
                    for bundle, k in (("split_p1:0", 1), ("split_p1:2", 1), ("split_p1:0,2", 3), ("split_p1:1,1", 2)))

STRETCH = 10  # the one criterion that does not gate


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float
    gating: bool


def format_line(res: CriterionResult) -> str:
    tag = "SKIP" if res.detail.startswith("skipped") else ("PASS" if res.passed else "FAIL")
    return f"criterion {res.index} [{tag}] {res.name}: {res.detail} ({res.seconds:.1f}s)"


@lru_cache(maxsize=1)
def _grid_default():
    return build_grid_p1()


@lru_cache(maxsize=1)
def _grid_light():
    return build_grid_p1(n_radial=6, n_angular=16, depth=12)


def _closed_form_m2(t: float) -> float:
    return 2.0 * t / np.tanh(2.0 * t) - 1.0 if t > 0 else 0.0


def _random_filtration(rng: np.random.Generator) -> xs.FiltrationSpec:
    while True:
        n_sum = int(rng.integers(1, 5))
        degs = tuple(int(rng.integers(-2, 5)) for _ in range(n_sum))
        ambient = xs.split_p1(degs)
        nu = int(rng.integers(1, min(n_sum, 3) + 1))
        ranks = sorted(int(rng.integers(1, n_sum + 1)) for _ in range(nu - 1)) + [n_sum]
        steps = tuple(xs.split_p1(degs[:r]) for r in ranks)
        k = ambient.regularity() + int(rng.integers(0, 3))
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
            weights = tuple(w / top for w in weights)
        return xs.FiltrationSpec(weights=weights, steps=steps, v_dims=v_dims, ambient=ambient, level=k)


def _exact_identities():
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
        k = ambient.regularity() + 1
        v1, v2 = xs.split_p1(degs[:r1]).h0_at(k), ambient.h0_at(k)
        top = max(v1, v2 - v1)
        w1, w2 = Fraction(v2 - v1, top), Fraction(-v1, top)
        filt = xs.two_step_filtration(degs[:r1], degs, k, (w1, w2))
        sub = filt.steps[0]
        closed = 2 * (w1 - w2) * sub.rank * (xs.mu(ambient) - xs.mu(sub))
        if xs.m_na(filt) != closed:
            two_step_ok = False
            break
    if worst is None and two_step_ok:
        return True, "1000 weight-sum identities and 200 two-step closed forms exact"
    return False, "identity failure on a randomized filtration"


def _closed_form_energy():
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
    return passed, f"max closed-form error {max(errs):.2e}, fitted slope {fit.slope:.6f}"


def _logdet_slope():
    fields, _ = cli.run_slope(SLOPE)
    return fields["passed"], (f"fitted slope {fields['fitted_slope']:.8f} "
                              f"vs {xs.frac_str(fields['predicted_slope'])}")


def _trivial_saturation_sup() -> float:
    """sup |M1| along a rank-one bundle's path whose leading eigenspace
    already generates every fibre: the filtration saturates trivially and
    the combined energy M1 + mu M2, which on O(0) (mu = 0) is M1 alone,
    must stay bounded."""
    basis = bd.section_basis(bd.split(0), 2, orthonormal=False)
    ps = bg.one_ps(np.diag([0.5, -1.0, 0.5]))
    mdon = don.m1_curve(basis, _grid_default(), ps, np.linspace(0.0, 20.0, 9), n_path=64)
    return float(np.abs(mdon).max())


def _combined_energy():
    fields, _ = cli.run_asymptote(ASYMPTOTE)
    sup = _trivial_saturation_sup()
    detail = (f"fitted slope {fields['fitted_mdon_slope']:.6f} vs {xs.frac_str(fields['m_na'])}; "
              f"trivial-saturation sup {sup:.4f} <= 1")
    return fields["passed"] and sup <= 1.0, detail


def _subgeodesic_positivity():
    runs = [cli.run_subgeodesic(cfg)[0] for cfg in SUBGEODESIC]
    worst = max(fields["max_residual"] for fields in runs)
    min_eig = min(fields["min_eigenvalue"] for fields in runs)
    return all(fields["passed"] for fields in runs), f"max residual {worst:.2e}, min eigenvalue {min_eig:.2e}"


def _commutation():
    rng = np.random.default_rng(6)
    split_cases = [
        (bd.section_basis(bd.split(0, 2), 3), [1]),
        (bd.section_basis(bd.split(1, 1), 2), [0]),
    ]
    line_cases = [bd.section_basis(bd.split(0), 1), bd.section_basis(bd.split(2), 1)]
    # rank 2 with a Haar eigenframe: the moment matrices commute only in
    # an h_ref-orthonormal frame, where the draws above commute by shape
    # (1 x 1 or diagonal)
    haar_cases = [bd.section_basis(bd.split(0, 2), 3), bd.section_basis(bd.split(0, 1), 2)]

    def residual(basis, ps):
        t = float(rng.uniform(0.1, 2.0))
        x = complex(rng.normal(), rng.normal())
        return bg.commutator_residual(basis, ps, t, x)

    worst = 0.0
    for i in range(1000):
        mode = i % 3
        if mode == 0:
            basis, sub = split_cases[i % len(split_cases)]
            n1 = sum(len(basis.summand_rows(c)) for c in sub)
            n2 = basis.dimension - n1
            ps = bg.two_step_one_ps(basis, sub, (n2 / max(n1, n2), -n1 / max(n1, n2)))
        else:
            basis = line_cases[i % len(line_cases)]
            ps = bg.random_two_weight_ps(basis.dimension, rng)
        worst = max(worst, residual(basis, ps))
    worst_haar = 0.0
    for basis in haar_cases:
        for _ in range(300):
            worst_haar = max(worst_haar, residual(basis, bg.random_two_weight_ps(basis.dimension, rng)))
    passed = max(worst, worst_haar) <= 1e-10
    detail = (f"max normalized commutator {worst:.2e} over 1000 draws, "
              f"{worst_haar:.2e} over 600 rank-2 Haar-frame draws")
    return passed, detail


def _balanced_existence():
    grid = _grid_light()
    rng = np.random.default_rng(7)
    agree, conv_ok = [], []

    def random_start(n):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return a @ a.conj().T + 0.5 * np.eye(n)

    # the polystable O(1)+O(1) from I, the stable line bundles from random forms
    for degs, k, start in (((2,), 2, random_start), ((3,), 2, random_start), ((1, 1), 2, np.eye)):
        basis = bd.section_basis(bd.split(*degs), k)
        H0 = start(basis.dimension)
        st_t, _ = bl.t_iterate(basis, grid, H0, tol=1e-10, max_iter=200)
        st_lm, _ = bl.lm_minimize(basis, grid, H0, tol=1e-10, max_iter=100)
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
    return passed, detail


def _convexity():
    grid = _grid_light()
    rng = np.random.default_rng(8)
    basis = SLOPE.section_basis()
    n = basis.dimension
    paths = [(basis, SLOPE.ps.build(basis)), (bd.section_basis(bd.split(0), 1), bg.one_ps(np.diag([1.0, -1.0])))]
    for _ in range(5):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        z = 0.5 * (z + z.conj().T)
        paths.append((basis, bg.one_ps(z - (np.trace(z).real / n) * np.eye(n))))
    ts = np.linspace(0.0, 6.0, 25)
    worst = min(bl.convexity_monitor(don.m2_along_path(b, grid, ps, ts)) for b, ps in paths)
    return worst >= -1e-8, f"min second difference {worst:.2e} over {len(paths)} paths"


def _pinch_inequality():
    grid = _grid_light()
    c = bl.SPECTRAL_CONSTANT
    margins = []
    for a_deg in (0, 2):
        basis = bd.section_basis(bd.split(a_deg), 1)
        he = bl.hermitian_einstein_catalog(basis, grid)
        st, _ = bl.t_iterate(basis, grid, np.eye(basis.dimension), tol=1e-12, max_iter=60)
        hmin = bg.fs_metric(basis, grid, bg.HermitianForm(matrix=st.H.astype(complex)))
        diag = bl.delta_diagnostic(hmin, he, grid, spectral_c=c)
        val = don.form_energy(basis, grid, st.H)
        margins.append(val - diag.lower_bound)
        # non-vacuous version on a deliberately unbalanced form
        n = basis.dimension
        w = np.linspace(0.6, -0.6, n)
        H = np.diag(np.exp(w - w.mean()))
        hp = bg.fs_metric(basis, grid, bg.HermitianForm(matrix=H.astype(complex)))
        dp = bl.delta_diagnostic(hp, he, grid, spectral_c=c)
        margins.append(don.form_energy(basis, grid, H) - dp.lower_bound)
    passed = min(margins) >= -1e-9
    return passed, f"spectral constant {c:.6f}, min inequality margin {min(margins):.2e}"


def _stretch_balance():
    if os.environ.get("BML_RUN_STRETCH") != "1":
        return True, "skipped (set BML_RUN_STRETCH=1 to run)"
    grid = build_grid_p2(n_simplex=4, n_angular=8, depth=5)
    ok, resids = True, []
    for k in (1, 2):
        basis = bd.section_basis(bd.euler_tp2(), k)
        st, _ = bl.lm_minimize(basis, grid, np.eye(basis.dimension), tol=1e-6, max_iter=60)
        resids.append(st.residual)
        ok = ok and st.flag == "converged"
    return ok, f"residuals {', '.join(f'{r:.2e}' for r in resids)}"


ROWS = (
    (1, "exact identity suite", _exact_identities),
    (2, "closed-form log-det energy", _closed_form_energy),
    (3, "log-det slope, destabilized pair", _logdet_slope),
    (4, "combined-energy slope and boundedness", _combined_energy),
    (5, "subgeodesic positivity", _subgeodesic_positivity),
    (6, "compressed-multiplication commutation", _commutation),
    (7, "balanced existence and nonexistence", _balanced_existence),
    (8, "energy convexity along paths", _convexity),
    (9, "pinch diagnostics inequality", _pinch_inequality),
    (STRETCH, "tangent-bundle balance (stretch)", _stretch_balance),
)


def run(index: int) -> CriterionResult:
    """Criterion ``index``, timed.  A check that raises is a failed row
    whose detail names the error, so the rows after it still run."""
    _, name, check = ROWS[index - 1]
    t0 = time.perf_counter()
    try:
        passed, detail = check()
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(index, name, passed, detail, time.perf_counter() - t0, index != STRETCH)
