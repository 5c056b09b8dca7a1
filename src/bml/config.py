"""Experiment configuration: parsing, validation, round-trip serialization.

Configs are JSON-compatible dictionaries; every rational parameter is a
"p/q" string so exact values survive serialization.  ``parse_config``
validates and freezes an ExperimentConfig, ``config_to_dict`` inverts it
exactly (round-trip is tested), and ``read_config`` reads the raw object
from a JSON file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import bundles as bd
from . import bergman as bg
from .exactsheaf import frac_str

EXPERIMENT_KINDS = ("verify", "slope", "mna", "asymptote", "balance", "subgeodesic")


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class PSSpec:
    """Serializable description of a 1-PS generator."""

    type: str  # "two_step" | "diag" | "none"
    weights: tuple = ()
    sub: tuple = ()

    def to_dict(self) -> dict:
        out = {"type": self.type}
        if self.type != "none":
            out["weights"] = [frac_str(w) for w in self.weights]
        if self.type == "two_step":
            out["sub"] = list(self.sub)
        return out

    def build(self, basis: bd.SectionBasis) -> bg.OnePS:
        import numpy as np

        if self.type == "two_step":
            return bg.two_step_one_ps(basis, list(self.sub), [float(w) for w in self.weights])
        if self.type == "diag":
            if len(self.weights) != basis.dimension:
                raise ConfigError("ps.weights", "diagonal weight count must equal the section dimension")
            return bg.one_ps(np.diag([float(w) for w in self.weights]))
        raise ConfigError("ps.type", f"cannot build a path from {self.type!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    bundle: str = "split_p1:0,2"
    k: int = 3
    grid: dict = field(default_factory=dict)
    ps: PSSpec = PSSpec(type="none")
    t_end: float = 15.0
    samples: int = 12
    tol: float = 1e-2
    seed: int = 0
    out: Optional[str] = None

    def bundle_presentation(self) -> bd.BundlePresentation:
        return parse_bundle(self.bundle)

    def section_basis(self) -> bd.SectionBasis:
        return bd.section_basis(self.bundle_presentation(), self.k)

    def build_grid(self):
        from .quadrature import build_grid

        space = self.bundle_presentation().space_tag
        return build_grid(space, **self.grid)


def parse_bundle(text: str) -> bd.BundlePresentation:
    if text == "euler_tp2":
        return bd.euler_tp2()
    if text.startswith("split_p1:"):
        try:
            degrees = tuple(int(tok) for tok in text.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise ConfigError("bundle", f"bad degree list in {text!r}") from exc
        if not degrees:
            raise ConfigError("bundle", "split bundle needs at least one degree")
        return bd.split(*degrees)
    raise ConfigError("bundle", f"unknown bundle string {text!r}")


def _parse_ps(raw) -> PSSpec:
    if raw is None or raw == "none" or raw == {"type": "none"}:
        return PSSpec(type="none")
    if not isinstance(raw, dict) or "type" not in raw:
        raise ConfigError("ps", "expected a dict with a 'type' key")
    kind = raw["type"]
    if kind == "none":
        return PSSpec(type="none")
    if kind not in ("two_step", "diag"):
        raise ConfigError("ps.type", f"unknown generator type {kind!r}")
    try:
        weights = tuple(Fraction(w) for w in raw["weights"])
    except (KeyError, ValueError) as exc:
        raise ConfigError("ps.weights", str(exc)) from exc
    sub = tuple(int(i) for i in raw.get("sub", ()))
    if kind == "two_step" and len(weights) != 2:
        raise ConfigError("ps.weights", "two-step generator needs exactly two weights")
    if kind == "two_step" and not sub:
        raise ConfigError("ps.sub", "two-step generator needs summand indices")
    return PSSpec(type=kind, weights=weights, sub=sub)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    kind = raw.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("kind", f"must be one of {EXPERIMENT_KINDS}")
    cfg = ExperimentConfig(
        kind=kind,
        bundle=raw.get("bundle", "split_p1:0,2"),
        k=int(raw.get("k", 3)),
        grid=dict(raw.get("grid", {})),
        ps=_parse_ps(raw.get("ps")),
        t_end=float(raw.get("t_end", 15.0)),
        samples=int(raw.get("samples", 12)),
        tol=float(raw.get("tol", 1e-2)),
        seed=int(raw.get("seed", 0)),
        out=raw.get("out"),
    )
    bundle = cfg.bundle_presentation()  # validates the bundle string
    reg = bundle.regularity()
    if cfg.k < reg:
        raise ConfigError("k", f"level {cfg.k} is below the catalog regularity {reg}")
    if cfg.tol <= 0:
        raise ConfigError("tol", "tolerances must be positive")
    if cfg.t_end <= 0:
        raise ConfigError("t_end", "path end time must be positive")
    if cfg.samples < 2:
        raise ConfigError("samples", "need at least two samples")
    for key in cfg.grid:
        if key not in ("n_radial", "n_angular", "depth", "n_simplex"):
            raise ConfigError(f"grid.{key}", "unknown grid parameter")
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "kind": cfg.kind,
        "bundle": cfg.bundle,
        "k": cfg.k,
        "grid": dict(cfg.grid),
        "ps": cfg.ps.to_dict(),
        "t_end": cfg.t_end,
        "samples": cfg.samples,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "out": cfg.out,
    }


def read_config(path: str) -> dict:
    """The raw config object of a JSON file, for parse_config."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return raw
