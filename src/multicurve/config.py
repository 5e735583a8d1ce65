"""Run configuration: what a run varies.

A run is reproduced from its embedded config alone: the seed and an
optional volume table.  Nothing else is configuration.  The verify sample
counts and radii are fixed in verify, beside the checks whose tolerances
were tuned with them.  The thin threshold is hypfun.EPSILON, which the
`--epsilon` flags of `bounds eval` and `cells integrate` override for one
command.  The calibrated constants each have one definition in code, with
their provenance beside them: the comparison and sandwich constants
hypfun.COMPARISON_C, C1 and C2, the Bers bounds in hypfun.BERS_BOUNDS and
kappa in frequencies.KAPPA.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 20260814
    volume_table: str | None = None  # path; None = the bundled data/volumes.txt

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError("unknown config keys: %s" % ", ".join(sorted(extra)))
        # a JSON file types its own values: the Monte Carlo key needs an int
        # seed (bool is an int subclass, but no seed), and a table is a path
        seed = d.get("seed", cls.seed)
        if type(seed) is not int:
            raise ConfigError("config seed must be an integer, got %r" % (seed,))
        table = d.get("volume_table")
        if not (table is None or isinstance(table, str)):
            raise ConfigError("config volume_table must be a path or null, got %r" % (table,))
        return cls(**d)


def load_config(path: str | None = None) -> RunConfig:
    """Load a JSON config, or the defaults when no path is given."""
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read config %r: %s" % (path, e)) from None
    except json.JSONDecodeError as e:
        raise ConfigError("config %r is not valid JSON: %s" % (path, e)) from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return RunConfig.from_dict(data)
