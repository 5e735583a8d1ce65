"""Run configuration: what a run varies.

A run is reproduced from its embedded config alone: the seed and an
optional volume table.  Nothing else is configuration.  The verify sample
counts and radii are fixed in verify, beside the checks whose tolerances
were tuned with them.  The thin threshold is hypfun.EPSILON, which the
`--epsilon` flags of `bounds eval` and `cells integrate` override for one
command.  The calibrated constants each have one definition in code, with
their provenance beside them: the comparison and sandwich constants in
hypfun.Constants, the Bers bounds in hypfun.BERS_BOUNDS and kappa in
frequencies.KAPPA.
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
        return cls(**d)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


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
