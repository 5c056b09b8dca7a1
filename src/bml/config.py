"""Experiment configuration: parsing, validation, round-trip serialization.

Configs are JSON-compatible dictionaries; every rational parameter is a
"p/q" string so exact values survive serialization.  The fields of
ExperimentConfig are the schema: ``parse_config`` reads the keys present,
one reader per field, rejects unknown keys and freezes the result;
``config_to_dict`` inverts it exactly (round-trip is tested), and
``read_config`` reads the raw object from a JSON file.
"""

from __future__ import annotations

import copy
import inspect
import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional

from . import bundles as bd
from . import bergman as bg
from . import quadrature as qd
from .exactsheaf import SheafData, frac_str

EXPERIMENT_KINDS = ("verify", "slope", "mna", "asymptote", "balance", "subgeodesic")


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class PSSpec:
    """Serializable description of a 1-PS generator."""

    type: str  # "two_step" | "none"
    weights: tuple = ()
    sub: tuple = ()

    def to_dict(self) -> dict:
        out = {"type": self.type}
        if self.type != "none":
            out["weights"] = [frac_str(w) for w in self.weights]
            out["sub"] = list(self.sub)
        return out

    def build(self, basis: bd.SectionBasis) -> bg.OnePS:
        if self.type == "two_step":
            return bg.two_step_one_ps(basis, list(self.sub), [float(w) for w in self.weights])
        raise ConfigError("ps.type", f"cannot build a path from {self.type!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """The config schema: one field per key, defaults included."""

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

    def catalog_bundle(self) -> SheafData:
        return parse_bundle(self.bundle)

    def section_basis(self) -> bd.SectionBasis:
        return bd.section_basis(self.catalog_bundle(), self.k)

    def build_grid(self):
        return qd.build_grid(self.catalog_bundle().space_tag, **self.grid)


def parse_bundle(text: str) -> SheafData:
    if text == "euler_tp2":
        return bd.euler_tp2()
    if text.startswith("split_p1:"):
        try:
            degrees = tuple(int(tok) for tok in text.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise ConfigError("bundle", f"bad degree list in {text!r}") from exc
        return bd.split(*degrees)
    raise ConfigError("bundle", f"unknown bundle string {text!r}")


def _parse_ps_flag(text: str) -> dict:
    """Inline form: 'two_step:1:2/3,-1' or 'none'."""
    if text == "none":
        return {"type": "none"}
    parts = text.split(":")
    if parts[0] == "two_step" and len(parts) == 3:
        return {
            "type": "two_step",
            "sub": [int(i) for i in parts[1].split(",")],
            "weights": parts[2].split(","),
        }
    raise ConfigError("ps", f"cannot parse inline generator {text!r}")


def _parse_ps(raw) -> PSSpec:
    """A generator from its dict form or from its inline string form."""
    if isinstance(raw, str):
        raw = _parse_ps_flag(raw)
    if raw is None:
        return PSSpec(type="none")
    if not isinstance(raw, dict) or "type" not in raw:
        raise ConfigError("ps", "expected a dict with a 'type' key")
    kind = raw["type"]
    if kind == "none":
        return PSSpec(type="none")
    if kind != "two_step":
        raise ConfigError("ps.type", f"unknown generator type {kind!r}")
    try:
        weights = tuple(Fraction(w) for w in raw["weights"])
    except (KeyError, ValueError) as exc:
        raise ConfigError("ps.weights", str(exc)) from exc
    sub = tuple(_integer(i) for i in raw.get("sub", ()))
    if len(weights) != 2:
        raise ConfigError("ps.weights", "two-step generator needs exactly two weights")
    if not sub:
        raise ConfigError("ps.sub", "two-step generator needs summand indices")
    if len(set(sub)) < len(sub):
        raise ConfigError("ps.sub", f"summand indices {list(sub)} repeat")
    return PSSpec(type=kind, weights=weights, sub=sub)


def _integer(value) -> int:
    """An int or a decimal string; a float or a bool would be truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


# the grid keys of each space, read by parse_config: the keyword
# arguments of its grid builder
_GRID_KEYS = {space: tuple(inspect.signature(build).parameters)
              for space, build in (("P1", qd.build_grid_p1), ("P2", qd.build_grid_p2))}


def _parse_grid(raw) -> dict:
    return {key: _integer(value) for key, value in dict(raw).items()}


# one reader per ExperimentConfig field: raw JSON or CLI value -> field value;
# the bundle string is checked by parsing it in parse_config
_READERS = {
    "kind": str,
    "bundle": str,
    "k": _integer,
    "grid": _parse_grid,
    "ps": _parse_ps,
    "t_end": _real,
    "samples": _integer,
    "tol": _real,
    "seed": _integer,
    "out": lambda path: None if path is None else str(path),
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config.  Absent keys take the ExperimentConfig
    defaults; an unknown key or an unreadable value is a ConfigError
    naming the field."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    if raw.get("kind") not in EXPERIMENT_KINDS:
        raise ConfigError("kind", f"must be one of {EXPERIMENT_KINDS}")
    values = {}
    for key, value in raw.items():
        if key not in _READERS:
            raise ConfigError(key, "unknown config field")
        if raw["kind"] == "verify" and key not in ("kind", "out"):
            raise ConfigError(key, "bml verify reads no config field but out")
        try:
            values[key] = _READERS[key](value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(key, f"cannot read {value!r}: {exc}") from exc
    cfg = ExperimentConfig(**values)
    bundle = cfg.catalog_bundle()
    if cfg.k < bundle.regularity():
        raise ConfigError("k", f"level {cfg.k} is below the catalog regularity {bundle.regularity()}")
    for key in cfg.grid:
        if key not in _GRID_KEYS[bundle.space_tag]:
            raise ConfigError(f"grid.{key}", f"not a grid parameter on {bundle.space_tag}")
    if any(not 0 <= i < bundle.rank for i in cfg.ps.sub):
        raise ConfigError("ps.sub", f"summand index out of range for {bundle.label}")
    if not 0 < cfg.tol < float("inf"):
        raise ConfigError("tol", "tolerances must be positive and finite")
    if not 0 < cfg.t_end < float("inf"):
        raise ConfigError("t_end", "path end time must be positive and finite")
    if cfg.samples < 2:
        raise ConfigError("samples", "need at least two samples")
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    raw = {f.name: copy.copy(getattr(cfg, f.name)) for f in fields(cfg)}
    raw["ps"] = cfg.ps.to_dict()
    return raw


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
