"""Experiment configuration: parsing, validation, round-trip serialization.

Configs are JSON-compatible dictionaries; every rational parameter is a
"p/q" string so exact values survive serialization.  The fields of
ExperimentConfig are the schema and EXPERIMENT_KINDS says which of them
each experiment reads: ``parse_config`` reads the keys present, one
reader per field, rejects an unknown key or one the experiment does not
read and freezes the result; ``config_to_dict`` inverts it exactly
(round-trip is tested), echoing the fields the experiment reads, and
``read_config`` reads the raw object from a JSON file.
"""

from __future__ import annotations

import copy
import inspect
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import bundles as bd
from . import bergman as bg
from . import exactsheaf as xs
from . import quadrature as qd
from .exactsheaf import SheafData, frac_str

# the fields each experiment reads, besides kind and out
_PATH = ("bundle", "k", "grid", "ps", "t_end", "samples", "tol")
EXPERIMENT_KINDS = {
    "verify": (),
    "slope": _PATH,
    "mna": ("bundle", "k", "ps"),
    "asymptote": _PATH,
    "balance": ("bundle", "k", "grid"),
    "subgeodesic": ("bundle", "k", "t_end", "samples", "tol", "seed"),
}

# the grid builder of each space; its keyword arguments are the grid keys
GRID_BUILDERS = {"P1": qd.build_grid_p1, "P2": qd.build_grid_p2}

SUBGEODESIC_T_MIN = 0.1  # bml subgeodesic draws t from [0.1, min(t_end, 3))


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class PSSpec:
    """A two-step 1-PS generator: the first weight on the sections of the
    summands ``sub``, the second on the complement."""

    weights: tuple
    sub: tuple

    def to_dict(self) -> dict:
        return {"type": "two_step", "weights": [frac_str(w) for w in self.weights], "sub": list(self.sub)}

    def build(self, basis: bd.SectionBasis) -> bg.OnePS:
        return bg.two_step_one_ps(basis, list(self.sub), [float(w) for w in self.weights])


@dataclass(frozen=True)
class ExperimentConfig:
    """The config schema: one field per key, defaults included; ``ps`` is
    None when no path is given."""

    kind: str
    bundle: str = "split_p1:0,2"
    k: int = 3
    grid: dict = field(default_factory=dict)
    ps: Optional[PSSpec] = None
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
        return GRID_BUILDERS[self.catalog_bundle().space_tag](**self.grid)

    def two_step_filtration(self) -> Optional[xs.FiltrationSpec]:
        """The exact filtration of the two-step path; None without a path,
        on a bundle not split on P^1, or when ``sub`` leaves no complement."""
        bundle = self.catalog_bundle()
        if self.ps is None or bundle.kind != "split_p1" or len(self.ps.sub) == bundle.rank:
            return None
        sub_degrees = [bundle.degrees[i] for i in self.ps.sub]
        return xs.two_step_filtration(sub_degrees, bundle.degrees, self.k, self.ps.weights)


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
    """Inline form: 'two_step:1:2/3,-1'."""
    parts = text.split(":")
    if parts[0] == "two_step" and len(parts) == 3:
        return {
            "type": "two_step",
            "sub": [int(i) for i in parts[1].split(",")],
            "weights": parts[2].split(","),
        }
    raise ConfigError("ps", f"cannot parse inline generator {text!r}")


def _parse_ps(raw) -> Optional[PSSpec]:
    """A generator from its dict form or from its inline string form;
    None for no path."""
    if isinstance(raw, str):
        raw = _parse_ps_flag(raw)
    if raw is None:
        return None
    if not isinstance(raw, dict) or "type" not in raw:
        raise ConfigError("ps", "expected a dict with a 'type' key")
    if raw["type"] != "two_step":
        raise ConfigError("ps.type", f"unknown generator type {raw['type']!r}")
    try:
        weights = tuple(Fraction(w) for w in raw["weights"])
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError("ps.weights", str(exc)) from exc
    sub = tuple(_integer(i) for i in raw.get("sub", ()))
    if len(weights) != 2:
        raise ConfigError("ps.weights", "two-step generator needs exactly two weights")
    if not sub:
        raise ConfigError("ps.sub", "two-step generator needs summand indices")
    if len(set(sub)) < len(sub):
        raise ConfigError("ps.sub", f"summand indices {list(sub)} repeat")
    return PSSpec(weights=weights, sub=sub)


def _integer(value) -> int:
    """An int or a decimal string; a float or a bool would be truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


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
    defaults; an unknown key, a key the experiment does not read
    (EXPERIMENT_KINDS) or an unreadable value is a ConfigError naming
    the field."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in EXPERIMENT_KINDS:
        raise ConfigError("kind", f"must be one of {tuple(EXPERIMENT_KINDS)}")
    values = {}
    for key, value in raw.items():
        if key not in _READERS:
            raise ConfigError(key, "unknown config field")
        if key not in ("kind", "out", *EXPERIMENT_KINDS[kind]):
            raise ConfigError(key, f"bml {kind} does not read it")
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
    grid_keys = inspect.signature(GRID_BUILDERS[bundle.space_tag]).parameters
    for key in cfg.grid:
        if key not in grid_keys:
            raise ConfigError(f"grid.{key}", f"not a grid parameter on {bundle.space_tag}")
    if cfg.ps is not None and any(not 0 <= i < bundle.rank for i in cfg.ps.sub):
        raise ConfigError("ps.sub", f"summand index out of range for {bundle.label}")
    try:
        cfg.two_step_filtration()
    except ValueError as exc:
        raise ConfigError("ps.weights", str(exc)) from exc
    if not 0 < cfg.tol < float("inf"):
        raise ConfigError("tol", "tolerances must be positive and finite")
    if not 0 < cfg.t_end < float("inf"):
        raise ConfigError("t_end", "path end time must be positive and finite")
    if cfg.samples < 2:
        raise ConfigError("samples", "need at least two samples")
    if cfg.seed < 0:
        raise ConfigError("seed", "seeds must be non-negative")
    if kind == "subgeodesic" and cfg.t_end < SUBGEODESIC_T_MIN:
        raise ConfigError("t_end", f"path times are drawn from [{SUBGEODESIC_T_MIN}, min(t_end, 3))")
    if kind == "subgeodesic" and bundle.space_tag != "P1":
        raise ConfigError("bundle", "bml subgeodesic draws its points on P1")
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The raw form of ``cfg``: kind, out and the fields its experiment
    reads."""
    names = ("kind", "out", *EXPERIMENT_KINDS[cfg.kind])
    raw = {name: copy.copy(getattr(cfg, name)) for name in names}
    if raw.get("ps") is not None:
        raw["ps"] = raw["ps"].to_dict()
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
