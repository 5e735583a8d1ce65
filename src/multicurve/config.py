"""Run configuration: what a run varies.

A run is reproduced from its embedded config alone: the seed, the thin
threshold epsilon, an optional volume table and the budgets.  Budgets are
sized so the verification suite meets its stated runtime bounds on a small
desktop.  The calibrated constants are not configuration; each has one
definition in code, with its provenance beside it: the comparison and
sandwich constants in hypfun.Constants, the Bers bounds in
hypfun.BERS_BOUNDS and kappa in frequencies.KAPPA.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from .hypfun import BERS_BOUNDS, Constants


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class Budgets:
    """Sample counts and length scales for the verification suite."""

    lattice_L: float = 2000.0  # lattice-ball radius for the closed-form check
    cell_samples: int = 100000  # MC draws per Weil-Petersson cell
    moduli_samples: int = 8000  # draws for mc_moduli of 1, Bhat, count_s
    moment_samples: int = 20000  # draws for the heavy-tailed Bhat^2 moment
    bhat_lmax: float = 80.0  # ladder top for the unit-ball estimate
    ratio_L: float = 80.0  # counting-asymptotics radius
    ratio_points: int = 10
    bound_points: int = 50  # sample count for the uniform bound check
    bound_lengths: tuple = (20.0, 40.0, 80.0)
    bound_kmax: int = 10
    sandwich_box: int = 80  # box samples for the sandwich check
    sandwich_thin: int = 20  # deliberate thin samples, ell in [1e-3, 1e-1]
    joint_L: float = 60.0  # joint-counting radius
    freq_cap: int = 100  # partial-sum cap for b from frequencies
    witness_floors: tuple = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

    def __post_init__(self):
        object.__setattr__(self, "bound_lengths", tuple(float(v) for v in self.bound_lengths))
        object.__setattr__(self, "witness_floors", tuple(float(v) for v in self.witness_floors))
        for name in ("cell_samples", "moduli_samples", "moment_samples",
                     "ratio_points", "bound_points", "bound_kmax",
                     "sandwich_box", "sandwich_thin", "freq_cap"):
            if getattr(self, name) < 1:
                raise ConfigError("budget %s must be positive" % name)
        if self.bhat_lmax < 10 or self.lattice_L <= 0 or self.ratio_L <= 0 or self.joint_L <= 0:
            raise ConfigError("length budgets must be positive (bhat_lmax >= 10)")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 20260814
    volume_table: str | None = None  # path; None = the bundled data/volumes.txt
    epsilon: float = 0.1  # thin threshold
    budgets: Budgets = field(default_factory=Budgets)

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ConfigError("epsilon must lie in (0, 1)")

    def constants(self, surface: str) -> Constants:
        try:
            bers = BERS_BOUNDS[surface]
        except KeyError:
            raise ConfigError("no bers bound for surface %r" % surface) from None
        return Constants(epsilon=self.epsilon, bers_bound=bers)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["budgets"]["bound_lengths"] = list(self.budgets.bound_lengths)
        d["budgets"]["witness_floors"] = list(self.budgets.witness_floors)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ConfigError("unknown config keys: %s" % ", ".join(sorted(extra)))
        if "budgets" in d and not isinstance(d["budgets"], Budgets):
            bd = dict(d["budgets"])
            bextra = set(bd) - set(Budgets.__dataclass_fields__)
            if bextra:
                raise ConfigError("unknown budget keys: %s" % ", ".join(sorted(bextra)))
            try:
                d["budgets"] = Budgets(**bd)
            except TypeError as e:
                raise ConfigError("bad budgets block: %s" % e) from None
        try:
            return cls(**d)
        except TypeError as e:
            raise ConfigError("bad config: %s" % e) from None

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
