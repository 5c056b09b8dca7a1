"""Command-line experiment runner.

Subcommands: verify | slope | mna | asymptote | balance | subgeodesic.
Each reads a JSON config (optionally overridden by inline flags), runs
the named experiment, writes CSV/JSON artifacts plus a human-readable
summary, and exits 0 on success, 2 when a numeric assertion fails, and 1
on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import balance as bl
from . import bergman as bg
from . import bundles as bd
from . import donaldson as don
from . import exactsheaf as xs
from . import reporting as rep
from .config import ConfigError, ExperimentConfig, config_to_dict, parse_config


class ExperimentFailed(RuntimeError):
    pass


def _two_step_filtration(cfg: ExperimentConfig) -> xs.FiltrationSpec:
    bundle = cfg.bundle_presentation()
    if bundle.kind != "split_p1" or cfg.ps.type != "two_step":
        raise ExperimentFailed("exact slope predictions need a two-step split-bundle path")
    sub_degs = [bundle.degrees[i] for i in cfg.ps.sub]
    rest = [d for i, d in enumerate(bundle.degrees) if i not in cfg.ps.sub]
    if not rest:
        raise ExperimentFailed("two-step path must leave a complementary block")
    sub_sheaf = xs.split_p1(sub_degs)
    ambient = xs.split_p1(bundle.degrees)
    w1, w2 = cfg.ps.weights
    v1 = sum(xs.h0_p1(d + cfg.k) for d in sub_degs)
    v2 = ambient.h0_at(cfg.k)
    return xs.FiltrationSpec(
        weights=(w1, w2),
        steps=(sub_sheaf, ambient),
        v_dims=(v1, v2),
        ambient=ambient,
        level=cfg.k,
    )


def _out_path(cfg: ExperimentConfig, out_dir, name: str) -> str:
    base = out_dir or cfg.out or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _times(cfg: ExperimentConfig) -> np.ndarray:
    return np.linspace(cfg.t_end / cfg.samples, cfg.t_end, cfg.samples)


def run_slope(cfg: ExperimentConfig, out_dir=None) -> dict:
    basis = cfg.section_basis()
    grid = cfg.build_grid()
    ps = cfg.ps.build(basis)
    filt = _two_step_filtration(cfg)
    predicted = xs.m2_slope_prediction(filt)
    ts = _times(cfg)
    m2 = don.m2_along_path(basis, grid, ps, ts)
    fit = don.asymptotic_slope_fit(ts, m2, t_min=0.6 * cfg.t_end, predicted=float(predicted))
    rep.write_csv(
        _out_path(cfg, out_dir, "slope.csv"),
        rep.SLOPE_COLUMNS,
        rep.slope_rows(ts, m2=m2, prediction=predicted),
    )
    ok = abs(fit.slope - float(predicted)) <= cfg.tol * max(1.0, abs(float(predicted)))
    summary = {
        "experiment": "slope",
        "config": config_to_dict(cfg),
        "predicted_slope": predicted,
        "fitted_slope": fit.slope,
        "fit_residual": fit.residual,
        "passed": bool(ok),
    }
    rep.write_json(_out_path(cfg, out_dir, "slope.json"), summary)
    return summary


def run_mna(cfg: ExperimentConfig, out_dir=None) -> dict:
    filt = _two_step_filtration(cfg)
    ambient = filt.ambient
    grading = xs.weight_grading(filt)
    lhs, rhs = xs.weight_sum_identity(filt)
    candidates = [filt.steps[0]]
    verdict, witness = xs.slope_stability_verdict(ambient, candidates)
    summary = {
        "experiment": "mna",
        "config": config_to_dict(cfg),
        "m_na": xs.m_na(filt),
        "j_na": xs.j_na(grading, filt.weights),
        "m2_slope_prediction": xs.m2_slope_prediction(filt),
        "weight_sum_lhs": lhs,
        "weight_sum_rhs": rhs,
        "mu_ambient": xs.mu(ambient),
        "mu_sub": xs.mu(filt.steps[0]),
        "le_potier_sign": xs.le_potier_verdict(filt.steps[0], ambient, cfg.k),
        "slope_verdict": verdict,
        "passed": bool(rhs == 2 * lhs),
    }
    rep.write_json(_out_path(cfg, out_dir, "mna.json"), summary)
    return summary


def run_asymptote(cfg: ExperimentConfig, out_dir=None) -> dict:
    basis = cfg.section_basis()
    grid = cfg.build_grid()
    ps = cfg.ps.build(basis)
    filt = _two_step_filtration(cfg)
    m_na = xs.m_na(filt)
    m2_pred = xs.m2_slope_prediction(filt)
    mu_e = xs.mu(filt.ambient)
    ts = _times(cfg)
    m1 = don.m1_curve(basis, grid, ps, ts)
    m2 = don.m2_along_path(basis, grid, ps, ts)
    mdon = m1 + float(mu_e) * m2
    fit_don = don.asymptotic_slope_fit(ts, mdon, t_min=0.6 * cfg.t_end, predicted=float(m_na))
    fit_m2 = don.asymptotic_slope_fit(ts, m2, t_min=0.6 * cfg.t_end, predicted=float(m2_pred))
    rep.write_csv(
        _out_path(cfg, out_dir, "asymptote.csv"),
        rep.SLOPE_COLUMNS,
        rep.slope_rows(ts, m1=m1, m2=m2, mdon=mdon, prediction=m_na),
    )
    ok = abs(fit_don.slope - float(m_na)) <= cfg.tol * max(1.0, abs(float(m_na)))
    summary = {
        "experiment": "asymptote",
        "config": config_to_dict(cfg),
        "m_na": m_na,
        "m2_slope_prediction": m2_pred,
        "fitted_mdon_slope": fit_don.slope,
        "fitted_m2_slope": fit_m2.slope,
        "empirical_intercept_bound": float(np.min(mdon - float(m_na) * ts)),
        "passed": bool(ok),
    }
    rep.write_json(_out_path(cfg, out_dir, "asymptote.json"), summary)
    return summary


def _polystable_decoration(bundle: bd.BundlePresentation) -> str:
    if bundle.kind == "split_p1" and len(bundle.degrees) > 1 and len(set(bundle.degrees)) == 1:
        return "converged (polystable)"
    return "converged (stable)"


def run_balance(cfg: ExperimentConfig, out_dir=None) -> dict:
    basis = cfg.section_basis()
    grid = cfg.build_grid()
    H0 = np.eye(basis.dimension)
    state_t, hist_t = bl.t_iterate(basis, grid, H0, tol=1e-10, max_iter=300)
    state_lm, hist_lm = bl.lm_minimize(basis, grid, H0, tol=1e-10, max_iter=200)
    rep.write_csv(_out_path(cfg, out_dir, "balance_t.csv"), rep.BALANCE_COLUMNS, rep.balance_rows(hist_t))
    rep.write_csv(_out_path(cfg, out_dir, "balance_lm.csv"), rep.BALANCE_COLUMNS, rep.balance_rows(hist_lm))
    try:
        verdict = bl.divergence_detect(hist_t)
    except bl.Inconclusive:
        # fast convergence can finish before the classifier has enough
        # history; the solver flag is then authoritative
        verdict = "converged" if state_t.flag == "converged" else "inconclusive"
    if verdict == "converged":
        verdict = _polystable_decoration(cfg.bundle_presentation())
    summary = {
        "experiment": "balance",
        "config": config_to_dict(cfg),
        "verdict": verdict,
        "t_flag": state_t.flag,
        "t_residual": state_t.residual,
        "lm_flag": state_lm.flag,
        "lm_residual": state_lm.residual,
        "spread_ratio": state_t.spread_ratio,
        "final_H": [[repr(complex(v)) for v in row] for row in state_t.H],
        "passed": state_t.flag in ("converged", "diverged"),
    }
    rep.write_json(_out_path(cfg, out_dir, "balance.json"), summary)
    return summary


def run_subgeodesic(cfg: ExperimentConfig, out_dir=None) -> dict:
    basis = cfg.section_basis()
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    min_eig = np.inf
    for _ in range(cfg.samples):
        ps = bg.random_two_weight_ps(basis.dimension, rng)
        t = float(rng.uniform(0.1, min(cfg.t_end, 3.0)))
        x = complex(rng.normal(), rng.normal())
        lhs, rhs, resid, eig = bg.subgeodesic_residual(basis, ps, t, x)
        worst = max(worst, resid)
        min_eig = min(min_eig, eig)
    ok = worst <= cfg.tol and min_eig >= -1e-12
    summary = {
        "experiment": "subgeodesic",
        "config": config_to_dict(cfg),
        "max_residual": worst,
        "min_eigenvalue": float(min_eig),
        "passed": bool(ok),
    }
    rep.write_json(_out_path(cfg, out_dir, "subgeodesic.json"), summary)
    return summary


def run_verify(cfg: ExperimentConfig, out_dir=None) -> dict:
    from . import acceptance

    results = acceptance.run_all(include_stretch=False)
    for res in results:
        print(acceptance.format_line(res))
    summary = {
        "experiment": "verify",
        "config": config_to_dict(cfg),
        "results": [
            {"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": all(r.passed for r in results if r.gating),
    }
    rep.write_json(_out_path(cfg, out_dir, "verify.json"), summary)
    return summary


RUNNERS = {
    "verify": run_verify,
    "slope": run_slope,
    "mna": run_mna,
    "asymptote": run_asymptote,
    "balance": run_balance,
    "subgeodesic": run_subgeodesic,
}


def _apply_overrides(raw: dict, args) -> dict:
    if args.bundle is not None:
        raw["bundle"] = args.bundle
    if args.k is not None:
        raw["k"] = args.k
    if args.ps is not None:
        raw["ps"] = _parse_ps_flag(args.ps)
    if args.t_end is not None:
        raw["t_end"] = args.t_end
    if args.samples is not None:
        raw["samples"] = args.samples
    if args.tol is not None:
        raw["tol"] = args.tol
    if args.seed is not None:
        raw["seed"] = args.seed
    return raw


def _parse_ps_flag(text: str) -> dict:
    """Inline form: 'two_step:1:2/3,-1' or 'diag:1,-1,0' or 'none'."""
    if text == "none":
        return {"type": "none"}
    parts = text.split(":")
    if parts[0] == "two_step" and len(parts) == 3:
        return {
            "type": "two_step",
            "sub": [int(i) for i in parts[1].split(",")],
            "weights": parts[2].split(","),
        }
    if parts[0] == "diag" and len(parts) == 2:
        return {"type": "diag", "weights": parts[1].split(",")}
    raise ConfigError("ps", f"cannot parse inline generator {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bml", description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in RUNNERS:
        p = sub.add_parser(kind)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--bundle", default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--ps", default=None)
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        else:
            raw = {}
        raw["kind"] = args.kind
        raw = _apply_overrides(raw, args)
        cfg = parse_config(raw)
        summary = RUNNERS[args.kind](cfg, out_dir=args.out)
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
