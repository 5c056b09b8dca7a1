import dataclasses
import json
from fractions import Fraction

import pytest

from bml import cli
from bml import config as cf


def sample_raw():
    return {
        "kind": "slope",
        "bundle": "split_p1:0,2",
        "k": 3,
        "grid": {"n_radial": 4, "n_angular": 8, "depth": 8},
        "ps": {"type": "two_step", "weights": ["2/3", "-1"], "sub": [1]},
        "t_end": 12.0,
        "samples": 10,
        "tol": 0.01,
        "out": None,
    }


def test_parse_and_roundtrip():
    cfg = cf.parse_config(sample_raw())
    assert cfg.kind == "slope"
    assert cfg.ps.weights == (Fraction(2, 3), Fraction(-1))
    again = cf.parse_config(cf.config_to_dict(cfg))
    assert again == cfg


# a value away from its default for every config field but kind
AWAY = {
    "bundle": "split_p1:1,1", "k": 2, "grid": {"n_radial": 4}, "ps": "two_step:0:1/2,-1/2",
    "t_end": 9.5, "samples": 7, "tol": 0.5, "seed": 4, "out": "runs",
}


def test_every_field_roundtrips():
    """Per kind, a config with every field the experiment reads away from
    its default survives config_to_dict -> parse_config, the echo lists
    exactly kind, out and the fields read, and any other field is a
    ConfigError naming it.  Every field is read by some kind, and every
    CLI flag is a config field."""
    fields = {f.name: f for f in dataclasses.fields(cf.ExperimentConfig)}
    for kind, reads in cf.EXPERIMENT_KINDS.items():
        cfg = cf.parse_config({"kind": kind, **{name: AWAY[name] for name in ("out", *reads)}})
        for name in ("out", *reads):
            f = fields[name]
            default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
            assert getattr(cfg, name) != default, (kind, name)
        echo = cf.config_to_dict(cfg)
        assert set(echo) == {"kind", "out", *reads}, kind
        assert cf.parse_config(echo) == cfg, kind
        for name in set(fields) - set(echo):
            with pytest.raises(cf.ConfigError) as err:
                cf.parse_config({"kind": kind, name: AWAY[name]})
            assert err.value.field_name == name, (kind, name)
    assert {"kind", "out"}.union(*cf.EXPERIMENT_KINDS.values()) == set(fields)
    flags = {a.dest for a in cli.build_parser()._subparsers._group_actions[0].choices["slope"]._actions}
    assert flags - {"help", "config"} <= set(fields)


def test_defaults():
    cfg = cf.parse_config({"kind": "mna"})
    assert cfg.bundle == "split_p1:0,2"
    assert cfg.k == 3
    assert cfg.ps is None


def test_bundle_parsing():
    assert cf.parse_bundle("split_p1:1,1").degrees == (1, 1)
    assert cf.parse_bundle("euler_tp2").kind == "euler_tp2"
    with pytest.raises(cf.ConfigError):
        cf.parse_bundle("mystery")
    with pytest.raises(cf.ConfigError):
        cf.parse_bundle("split_p1:a,b")


def test_validation_errors():
    with pytest.raises(cf.ConfigError, match="kind"):
        cf.parse_config({"kind": "nope"})
    with pytest.raises(cf.ConfigError, match="regularity"):
        cf.parse_config({"kind": "mna", "bundle": "split_p1:-4", "k": 2})
    with pytest.raises(cf.ConfigError, match="tol"):
        cf.parse_config({"kind": "slope", "tol": -1})
    with pytest.raises(cf.ConfigError, match="t_end"):
        cf.parse_config({"kind": "slope", "t_end": 0})
    with pytest.raises(cf.ConfigError, match="samples"):
        cf.parse_config({"kind": "slope", "samples": 1})
    with pytest.raises(cf.ConfigError, match="grid"):
        cf.parse_config({"kind": "balance", "grid": {"spacing": 2}})


def test_ps_validation():
    with pytest.raises(cf.ConfigError, match="ps"):
        cf._parse_ps("diag")
    with pytest.raises(cf.ConfigError, match="type"):
        cf._parse_ps({"type": "spiral"})
    # a path experiment needs a two-step generator; no other type is read
    with pytest.raises(cf.ConfigError, match="type"):
        cf._parse_ps({"type": "diag", "weights": ["1", "-1"]})
    with pytest.raises(cf.ConfigError, match="weights"):
        cf._parse_ps({"type": "two_step", "weights": ["1"], "sub": [0]})
    with pytest.raises(cf.ConfigError, match="sub"):
        cf._parse_ps({"type": "two_step", "weights": ["1", "-1"]})


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(sample_raw()))
    assert cf.read_config(str(path)) == sample_raw()
    assert cf.parse_config(cf.read_config(str(path))).samples == 10
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(cf.ConfigError, match="JSON"):
        cf.read_config(str(bad))
    bad.write_text("[1, 2]")
    with pytest.raises(cf.ConfigError, match="config must be a JSON object"):
        cf.read_config(str(bad))
