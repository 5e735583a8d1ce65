"""Run configuration: validation, round trips, and derived constants."""

import json
import math
from dataclasses import replace

import pytest

from multicurve.config import Budgets, ConfigError, RunConfig, load_config
from multicurve.hypfun import BERS_BOUNDS, Constants

# keys of configs saved while the calibrated constants were configuration
REMOVED_KEYS = ("bers_bounds", "c1", "c2", "comparison_c", "kappa", "provenance",
                "symmetry_factor")


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.seed == 20260814
    assert cfg.epsilon == 0.1
    assert cfg.volume_table is None
    assert set(cfg.to_dict()) == {"seed", "volume_table", "epsilon", "budgets"}


def test_validation_errors():
    with pytest.raises(ConfigError, match="epsilon"):
        RunConfig(epsilon=0.0)
    with pytest.raises(ConfigError, match="epsilon"):
        RunConfig(epsilon=1.0)
    # a calibrated constant is not a run setting
    for key in REMOVED_KEYS:
        with pytest.raises(TypeError):
            RunConfig(**{key: 1.0})


def test_budget_validation():
    with pytest.raises(ConfigError, match="cell_samples"):
        Budgets(cell_samples=0)
    with pytest.raises(ConfigError, match="freq_cap"):
        Budgets(freq_cap=0)
    with pytest.raises(ConfigError, match="bhat_lmax"):
        Budgets(bhat_lmax=5.0)
    with pytest.raises(ConfigError, match="positive"):
        Budgets(lattice_L=0.0)
    b = Budgets(bound_lengths=[10, 20])
    assert b.bound_lengths == (10.0, 20.0)


def test_unknown_surface_lookups():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="no bers bound for surface 'S99'"):
        cfg.constants("S99")
    assert cfg.constants("S04").bers_bound == 4.0


def test_constants_view():
    cfg = RunConfig()
    consts = cfg.constants("S11")
    assert isinstance(consts, Constants)
    assert consts.epsilon == cfg.epsilon
    assert consts.bers_bound == BERS_BOUNDS["S11"] == pytest.approx(2 * math.acosh(1.5), rel=1e-15)
    # the calibrated constants are the Constants defaults
    assert (consts.comparison_c, consts.c1, consts.c2) == (4.0, 0.25, 2.25)
    # the run's epsilon and the per-surface bers bound flow through
    assert replace(cfg, epsilon=0.05).constants("S11").epsilon == 0.05
    assert cfg.constants("S12").bers_bound == 6.0


def test_dict_round_trip():
    cfg = RunConfig(seed=7)
    d = cfg.to_dict()
    assert d["seed"] == 7
    assert isinstance(d["budgets"]["bound_lengths"], list)
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
    with pytest.raises(ConfigError, match="unknown budget keys: warp"):
        RunConfig.from_dict({"budgets": {"warp": 9}})


def test_save_and_load(tmp_path):
    path = tmp_path / "run.json"
    cfg = RunConfig(seed=99, epsilon=0.05)
    cfg.save(path)
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.seed == 99 and loaded.epsilon == 0.05


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


def test_replace_keeps_validation():
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        replace(cfg, epsilon=2.0)
    assert replace(cfg, seed=1).seed == 1
