"""Command-line experiment runner.

Subcommands: verify | slope | mna | asymptote | balance | subgeodesic.
Each reads a JSON config (optionally overridden by inline flags), runs
the named experiment, writes CSV/JSON artifacts plus a human-readable
summary, and exits 0 on success, 2 when a numeric assertion fails, and 1
on configuration or runtime errors.  A runner ``run_<kind>(cfg)`` writes
no file: it returns ``(fields, tables)``, the summary fields and the CSV
tables by file name as ``(columns, rows)``, and ``main`` writes both.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import balance as bl
from . import bergman as bg
from . import donaldson as don
from . import exactsheaf as xs
from . import reporting as rep
from .config import (SUBGEODESIC_T_MIN, ConfigError, ExperimentConfig, config_to_dict, parse_config,
                     read_config)


class ExperimentFailed(RuntimeError):
    pass


def _two_step_filtration(cfg: ExperimentConfig) -> xs.FiltrationSpec:
    filt = cfg.two_step_filtration()
    if filt is None:
        raise ExperimentFailed("exact predictions need a two-step split-bundle path with a complement")
    return filt


def _path_setup(cfg: ExperimentConfig):
    """(basis, grid, 1-PS, two-step filtration, sample times, start of the
    slope-fit window t >= 0.6 t_end) of a path experiment, refused up front
    if the window is short."""
    filt = _two_step_filtration(cfg)
    basis = cfg.section_basis()
    ts = np.linspace(cfg.t_end / cfg.samples, cfg.t_end, cfg.samples)
    t_min = 0.6 * cfg.t_end
    if (ts >= t_min).sum() < don.MIN_TAIL_SAMPLES:
        raise ConfigError("samples", f"fewer than {don.MIN_TAIL_SAMPLES} samples in the fit window t >= {t_min:g}")
    return basis, cfg.build_grid(), cfg.ps.build(basis), filt, ts, t_min


def run_slope(cfg: ExperimentConfig):
    basis, grid, ps, filt, ts, t_min = _path_setup(cfg)
    predicted = xs.m2_slope_prediction(filt)
    m2 = don.m2_along_path(basis, grid, ps, ts)
    fit = don.asymptotic_slope_fit(ts, m2, t_min=t_min, predicted=float(predicted))
    ok = abs(fit.slope - float(predicted)) <= cfg.tol * max(1.0, abs(float(predicted)))
    fields = dict(
        predicted_slope=predicted,
        fitted_slope=fit.slope,
        fit_residual=fit.residual,
        passed=bool(ok),
    )
    return fields, {"slope.csv": (rep.SLOPE_COLUMNS, rep.slope_rows(ts, m2, predicted))}


def run_mna(cfg: ExperimentConfig):
    filt = _two_step_filtration(cfg)
    ambient = filt.ambient
    grading = xs.weight_grading(filt)
    lhs, rhs = xs.weight_sum_identity(filt)
    candidates = [filt.steps[0]]
    verdict, witness = xs.slope_stability_verdict(ambient, candidates)
    fields = dict(
        m_na=xs.m_na(filt),
        j_na=xs.j_na(grading, filt.weights),
        m2_slope_prediction=xs.m2_slope_prediction(filt),
        weight_sum_lhs=lhs,
        weight_sum_rhs=rhs,
        mu_ambient=xs.mu(ambient),
        mu_sub=xs.mu(filt.steps[0]),
        le_potier_sign=xs.le_potier_verdict(filt.steps[0], ambient, cfg.k),
        slope_verdict=verdict,
        passed=bool(rhs == 2 * lhs),
    )
    return fields, {}


def run_asymptote(cfg: ExperimentConfig):
    basis, grid, ps, filt, ts, t_min = _path_setup(cfg)
    m_na = xs.m_na(filt)
    m2_pred = xs.m2_slope_prediction(filt)
    mu_e = xs.mu(filt.ambient)
    m1 = don.m1_curve(basis, grid, ps, ts)
    m2 = don.m2_along_path(basis, grid, ps, ts)
    mdon = m1 + float(mu_e) * m2
    fit_don = don.asymptotic_slope_fit(ts, mdon, t_min=t_min, predicted=float(m_na))
    fit_m2 = don.asymptotic_slope_fit(ts, m2, t_min=t_min, predicted=float(m2_pred))
    ok = abs(fit_don.slope - float(m_na)) <= cfg.tol * max(1.0, abs(float(m_na)))
    fields = dict(
        m_na=m_na,
        m2_slope_prediction=m2_pred,
        fitted_mdon_slope=fit_don.slope,
        fitted_m2_slope=fit_m2.slope,
        empirical_intercept_bound=float(np.min(mdon - float(m_na) * ts)),
        passed=bool(ok),
    )
    return fields, {"asymptote.csv": (rep.SLOPE_COLUMNS, rep.slope_rows(ts, m2, m_na, m1=m1, mdon=mdon))}


def _polystable_decoration(bundle: xs.SheafData) -> str:
    if bundle.kind == "split_p1" and len(bundle.degrees) > 1 and len(set(bundle.degrees)) == 1:
        return "converged (polystable)"
    return "converged (stable)"


def run_balance(cfg: ExperimentConfig):
    basis = cfg.section_basis()
    grid = cfg.build_grid()
    H0 = np.eye(basis.dimension)
    bl.lm_memory_check(basis, grid, H0)  # refuse before either solve runs
    state_t, hist_t = bl.t_iterate(basis, grid, H0, tol=1e-10, max_iter=300)
    state_lm, hist_lm = bl.lm_minimize(basis, grid, H0, tol=1e-10, max_iter=200)
    if state_t.flag == "converged":
        verdict = _polystable_decoration(cfg.catalog_bundle())
    else:
        verdict = "unstable-like" if state_t.flag == "diverged" else "inconclusive"
    fields = dict(
        verdict=verdict,
        t_flag=state_t.flag,
        t_residual=state_t.residual,
        lm_flag=state_lm.flag,
        lm_residual=state_lm.residual,
        spread_ratio=state_t.spread_ratio,
        final_H=[[repr(complex(v)) for v in row] for row in state_t.H],
        passed=state_t.flag in ("converged", "diverged"),
    )
    tables = {"balance_t.csv": (rep.BALANCE_COLUMNS, rep.balance_rows(hist_t)),
              "balance_lm.csv": (rep.BALANCE_COLUMNS, rep.balance_rows(hist_lm))}
    return fields, tables


def run_subgeodesic(cfg: ExperimentConfig):
    basis = cfg.section_basis()
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    min_eig = np.inf
    for _ in range(cfg.samples):
        ps = bg.random_two_weight_ps(basis.dimension, rng)
        t = float(rng.uniform(SUBGEODESIC_T_MIN, min(cfg.t_end, 3.0)))
        x = complex(rng.normal(), rng.normal())
        lhs, rhs, resid, eig = bg.subgeodesic_residual(basis, ps, t, x)
        worst = max(worst, resid)
        min_eig = min(min_eig, eig)
    ok = worst <= cfg.tol and min_eig >= -1e-12
    return dict(max_residual=worst, min_eigenvalue=float(min_eig), passed=bool(ok)), {}


def run_verify(cfg: ExperimentConfig):
    """Every acceptance criterion in order, each printed as it finishes:
    its console line carries the wall time, which no artifact does."""
    from . import acceptance

    results = []
    for index, _, _ in acceptance.ROWS:
        results.append(acceptance.run(index))
        print(acceptance.format_line(results[-1]), flush=True)
    fields = dict(
        results=[
            {"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        passed=all(r.passed for r in results if r.gating),
    )
    return fields, {}


RUNNERS = {
    "verify": run_verify,
    "slope": run_slope,
    "mna": run_mna,
    "asymptote": run_asymptote,
    "balance": run_balance,
    "subgeodesic": run_subgeodesic,
}


# config fields with an inline flag (``t_end`` is ``--t-end``); the strings
# are read by parse_config like any config value
OVERRIDES = ("bundle", "k", "ps", "t_end", "samples", "tol", "seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bml", description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in RUNNERS:
        p = sub.add_parser(kind)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", help="output directory")
        for name in OVERRIDES:
            p.add_argument("--" + name.replace("_", "-"))
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The config file of ``args`` (if any) with its inline flags applied."""
    raw = read_config(args.config) if args.config is not None else {}
    raw["kind"] = args.kind
    raw.update((name, getattr(args, name)) for name in OVERRIDES if getattr(args, name) is not None)
    return parse_config(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        fields, tables = RUNNERS[args.kind](cfg)
        out_dir = args.out or cfg.out or "."
        for name, (columns, rows) in tables.items():
            rep.write_csv(os.path.join(out_dir, name), columns, rows)
        summary = {"experiment": args.kind, "config": config_to_dict(cfg), **fields}
        rep.write_json(os.path.join(out_dir, f"{args.kind}.json"), summary)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExperimentFailed, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for key, val in summary.items():
        if key in ("config", "final_H", "results"):
            continue
        if isinstance(val, Fraction):
            val = xs.frac_str(val)
        print(f"{key}: {val}")
    return 0 if summary.get("passed", False) else 2


if __name__ == "__main__":
    sys.exit(main())
