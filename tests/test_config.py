"""Run configuration: validation, round trips, and the constants a run does
not set."""

import json
import math
from dataclasses import replace

import pytest

from multicurve.config import ConfigError, RunConfig, load_config
from multicurve.hypfun import BERS_BOUNDS, C1, C2, COMPARISON_C, EPSILON, Constants
from multicurve.topology import builtin_surface

# keys of configs saved while the calibrated constants, the thin threshold
# and the verify sizes were configuration
REMOVED_KEYS = ("bers_bounds", "budgets", "c1", "c2", "comparison_c", "epsilon", "kappa",
                "provenance", "symmetry_factor")


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.seed == 20260814
    assert cfg.volume_table is None
    assert cfg.to_dict() == {"seed": 20260814, "volume_table": None}


def test_validation_errors():
    # a calibrated constant, the thin threshold or a verify size is not a
    # run setting
    for key in REMOVED_KEYS:
        with pytest.raises(TypeError):
            RunConfig(**{key: 1.0})


def test_unknown_surface_lookups():
    # callers look up the Bers bound after builtin_surface has accepted the
    # name, so every builtin surface has one and an unknown name stops first
    for name in BERS_BOUNDS:
        builtin_surface(name)
    with pytest.raises(KeyError, match="unknown surface 'S99'"):
        builtin_surface("S99")
    assert Constants(bers_bound=BERS_BOUNDS["S04"]).bers_bound == 4.0


def test_constants_view():
    consts = Constants(bers_bound=BERS_BOUNDS["S11"])
    assert consts.epsilon == EPSILON == 0.1
    assert consts.bers_bound == BERS_BOUNDS["S11"] == pytest.approx(2 * math.acosh(1.5), rel=1e-15)
    # the calibrated constants are module constants, not Constants fields
    assert (COMPARISON_C, C1, C2) == (4.0, 0.25, 2.25)
    for key in ("comparison_c", "c1", "c2"):
        with pytest.raises(TypeError):
            Constants(**{key: 1.0})
    # an --epsilon override and the per-surface bers bound flow through
    assert replace(consts, epsilon=0.05).epsilon == 0.05
    assert Constants(bers_bound=BERS_BOUNDS["S12"]).bers_bound == 6.0


def test_dict_round_trip():
    cfg = RunConfig(seed=7)
    d = cfg.to_dict()
    assert d == {"seed": 7, "volume_table": None}
    again = RunConfig.from_dict(d)
    assert again == cfg
    # json round trip too
    again2 = RunConfig.from_dict(json.loads(json.dumps(d)))
    assert again2 == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: boost"):
        RunConfig.from_dict({"boost": 2})
    # keys of configs saved before these fields were removed
    with pytest.raises(ConfigError, match="unknown config keys: surface, threads"):
        RunConfig.from_dict({**RunConfig().to_dict(), "surface": "S11", "threads": 1})
    # each calibrated constant, as the config echo carried it before
    for key in REMOVED_KEYS:
        with pytest.raises(ConfigError, match="unknown config keys: %s$" % key):
            RunConfig.from_dict({**RunConfig().to_dict(), key: 1.0})
    with pytest.raises(ConfigError, match="unknown config keys: budgets$"):
        RunConfig.from_dict({"budgets": {}})


def test_save_and_load(tmp_path):
    path = tmp_path / "run.json"
    cfg = RunConfig(seed=99, volume_table="vols.txt")
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.seed == 99 and loaded.volume_table == "vols.txt"


def test_load_config_default_and_errors(tmp_path):
    assert load_config(None) == RunConfig()
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be"):
        load_config(arr)
    # values of the wrong JSON type: a float or string seed used to raise
    # TypeError in the Monte Carlo key, and a number was taken as a table
    typed = tmp_path / "typed.json"
    for doc, msg in (({"seed": "abc"}, "seed must be an integer, got 'abc'"),
                     ({"seed": 1.5}, "seed must be an integer, got 1.5"),
                     ({"seed": True}, "seed must be an integer, got True"),
                     ({"seed": None}, "seed must be an integer, got None"),
                     ({"volume_table": 5}, "volume_table must be a path or null, got 5"),
                     ({"volume_table": ["v.txt"]}, "volume_table must be a path or null")):
        typed.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=msg):
            load_config(typed)
    typed.write_text(json.dumps({"seed": 5, "volume_table": None}))
    assert load_config(typed) == RunConfig(seed=5)


def test_replace_keeps_validation():
    # replace rejects what the constructor rejects; --seed is applied by it
    cfg = RunConfig()
    with pytest.raises(TypeError):
        replace(cfg, epsilon=0.05)
    assert replace(cfg, seed=1).seed == 1
