"""Scalar special functions: collar width w, weights R and H, thin cuffs.

w(x) = arcsinh(1/sinh(x/2))   half-width of the embedded collar of a
                              geodesic of length x; sinh(w)·sinh(x/2) = 1
R(x) = 1/(x·|log x|)          weight of a short geodesic in the bound layer
H(x) = 1/(x·w(x))             combined weight; blows up at both ends
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def collar_width(x: float) -> float:
    if x <= 0:
        raise ValueError("length must be positive, got %r" % (x,))
    s = math.sinh(x / 2)
    if s == math.inf:
        return 0.0
    return math.asinh(1.0 / s)


def r_weight(x: float) -> float:
    if x <= 0:
        raise ValueError("length must be positive, got %r" % (x,))
    if x == 1.0:
        raise ValueError("R has a singularity at x = 1")
    return 1.0 / (x * abs(math.log(x)))


def h_weight(x: float) -> float:
    if x <= 0:
        raise ValueError("length must be positive, got %r" % (x,))
    return 1.0 / (x * collar_width(x))


def h_max(lo: float, hi: float) -> float:
    """Maximum of H on [lo, hi].

    H decreases and then increases on (0, inf), with its one minimum near
    x = 1.7626, so its maximum on an interval sits at an endpoint.
    """
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi, got [%r, %r]" % (lo, hi))
    return max(h_weight(lo), h_weight(hi))


_LENGTHS_MSG = "cuff lengths must be strictly positive and finite"
_CHUNK = 1024  # rows of draws read as Python floats at a time


@dataclass(frozen=True)
class FNPoint:
    """Fenchel-Nielsen coordinates: cuff lengths and twists along a fixed
    pants decomposition.

    A point built by the constructor checks its own lengths.  Points built
    from arrays of Monte Carlo draws go through from_draws, which checks the
    whole length array once and then builds every row without a per-point
    check; either way a point holds tuples of Python floats.
    """

    lengths: tuple
    twists: tuple

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        object.__setattr__(self, "twists", tuple(float(v) for v in self.twists))
        if len(self.lengths) != len(self.twists):
            raise ValueError("need one twist per cuff")
        ok = all(0 < v < math.inf for v in self.lengths)
        if not ok:
            raise ValueError(_LENGTHS_MSG)

    @classmethod
    def from_draws(cls, ells, taus):
        """Iterator of points, one per row of the (count, N) numpy float
        arrays of lengths and twists.

        The batch is validated here, once, by the constructor's rule (every
        length strictly positive and finite, NaN rejected) and with its
        ValueError; rows are then read as Python floats in bounded chunks
        and not checked again.
        """
        if ells.shape != taus.shape:
            raise ValueError("need one twist per cuff")
        if not ((ells > 0) & (ells < math.inf)).all():
            raise ValueError(_LENGTHS_MSG)
        return cls._rows(ells, taus)

    @classmethod
    def _rows(cls, ells, taus):
        new = object.__new__
        for lo in range(0, len(ells), _CHUNK):
            for lengths, twists in zip(ells[lo : lo + _CHUNK].tolist(),
                                       taus[lo : lo + _CHUNK].tolist()):
                point = new(cls)
                fields = point.__dict__
                fields["lengths"] = tuple(lengths)
                fields["twists"] = tuple(twists)
                yield point


def thin_cuffs(fn, eps: float) -> set[int]:
    """Indices (1-based) of cuffs with length <= eps; closed inequality."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lengths = fn.lengths if isinstance(fn, FNPoint) else fn
    return {i + 1 for i, ell in enumerate(lengths) if ell <= eps}


@dataclass(frozen=True)
class Constants:
    """Numeric constants the bound layer depends on.

    Everything here is configuration: epsilon is the thin threshold, bers_bound
    the per-surface cuff-length bound, comparison_c the calibrated constant
    comparing combinatorial to hyperbolic length, (c1, c2) the calibrated
    sandwich constants for the unit-ball function.
    """

    epsilon: float = 0.1
    bers_bound: float = 2 * math.acosh(1.5)  # sharp for the once-punctured torus
    comparison_c: float = 4.0  # calibrated; see config provenance
    c1: float = 0.25  # calibrated sandwich lower constant
    c2: float = 2.25  # calibrated sandwich upper constant

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.bers_bound <= 1:
            raise ValueError("bers_bound must exceed 1")
        if self.comparison_c < 1:
            raise ValueError("comparison_c must be >= 1")
