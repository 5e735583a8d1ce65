"""Scalar special functions: collar width w, weights R and H, thin cuffs.

w(x) = arcsinh(1/sinh(x/2))   half-width of the embedded collar of a
                              geodesic of length x; sinh(w)·sinh(x/2) = 1
R(x) = 1/(x·|log x|)          weight of a short geodesic in the bound layer
H(x) = 1/(x·w(x))             combined weight; blows up at both ends
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# thin threshold: a cuff of length <= EPSILON is thin.  The sandwich
# constants C1 and C2 were calibrated at this value, and the verify
# tolerances were tuned with it; `--epsilon` overrides it for one command.
EPSILON = 0.1

# The calibrated constants of the bound layer, defined here alone.
# COMPARISON_C compares combinatorial to hyperbolic length: max
# hyperbolic/comb length ratio 3.27 over 78 points x ~500 slopes, Bers
# corner and thin limits included; frozen at 4.0
COMPARISON_C = 4.0
# (C1, C2) are the sandwich constants C1·F <= B <= C2·F of the unit-ball
# function, which hold at the threshold EPSILON:
# min Bhat/F = 0.364 over box, thin and crossover sweeps; frozen at 0.25
C1 = 0.25
# max Bhat/F = 1.578, at ell just above EPSILON; frozen at 2.25
C2 = 2.25

# maximal systole of the once-punctured torus, 2 arccosh(3/2), attained at the
# square torus: the sharp Bers bound there
TORUS_MAX_SYSTOLE = 2 * math.acosh(1.5)

# Bers bound per builtin surface: every surface of the type has a pants
# decomposition whose cuffs are all at most this long.  Only S11's is sharp;
# the others are conservative box uppers, and nothing depends on their
# sharpness.
BERS_BOUNDS = {
    "S11": TORUS_MAX_SYSTOLE,
    "S04": 4.0,
    "S12": 6.0,
    "S20": 8.0,
}


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


_CHUNK = 1024  # rows of a numpy array read as Python objects at a time


def chunked_tolist(array):
    """Iterator over the rows of a numpy array as Python objects (floats for
    a 1-D array, lists of floats for a 2-D one), converted in chunks of
    bounded size rather than all at once."""
    return itertools.chain.from_iterable(
        array[lo : lo + _CHUNK].tolist() for lo in range(0, len(array), _CHUNK)
    )


def _row_tuples(chunk):
    """The rows of a 2-D numpy chunk as tuples of Python floats.  The
    transposed tolist() is one list per column, and zipping the columns
    yields each row's tuple with no per-row list in between; a chunk with no
    columns has empty rows."""
    columns = chunk.T.tolist()
    return zip(*columns) if columns else itertools.repeat((), len(chunk))


_LENGTHS_MSG = "cuff lengths must be strictly positive and finite"


@dataclass(frozen=True)
class FNPoint:
    """Fenchel-Nielsen coordinates: cuff lengths and twists along a fixed
    pants decomposition.

    A point built by the constructor checks its own lengths.  Points built
    from arrays of Monte Carlo draws go through from_draws, which checks the
    whole length array once and then builds every row without a per-point
    check, its tuples zipped from the columns of a chunk; either way a point
    holds tuples of Python floats.
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
            lengths = _row_tuples(ells[lo : lo + _CHUNK])
            twists = _row_tuples(taus[lo : lo + _CHUNK])
            for point_lengths, point_twists in zip(lengths, twists):
                point = new(cls)
                fields = point.__dict__
                fields["lengths"] = point_lengths
                fields["twists"] = point_twists
                yield point


def thin_cuffs(fn, eps: float) -> set[int]:
    """Indices (1-based) of cuffs with length <= eps; closed inequality."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lengths = fn.lengths if isinstance(fn, FNPoint) else fn
    return {i + 1 for i, ell in enumerate(lengths) if ell <= eps}


@dataclass(frozen=True)
class Constants:
    """The settings the bound layer reads for one command: epsilon, the thin
    threshold (EPSILON unless `--epsilon` overrides it), and bers_bound, the
    cuff-length bound of the surface, BERS_BOUNDS[surface].  The calibrated
    constants COMPARISON_C, C1 and C2 are not settings; they are module
    constants above.
    """

    epsilon: float = EPSILON
    bers_bound: float = TORUS_MAX_SYSTOLE  # sharp for the once-punctured torus

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.bers_bound <= 1:
            raise ValueError("bers_bound must exceed 1")
