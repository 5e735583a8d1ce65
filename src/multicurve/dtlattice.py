"""Dehn-Thurston coordinates: membership, combinatorial length, and
enumeration/counting of lattice points in length balls.

A surface with N cuffs gets coordinates (m_i, t_i), i = 1..N.  Integral
multicurves form the semigroup of points with m_i >= 0 integers, t_i
integers, subject to
  (1) m_i = 0  =>  t_i >= 0, and
  (2) for each pair of pants, the m_i over its non-cusp boundary slots
      (counted with multiplicity) sum to an even number.

The combinatorial length against per-cuff weights (w_i, l_i) is
  sum_i m_i * w_i + |t_i| * l_i,
a weighted L1 norm on the positive part; balls in it are what the Thurston
measure layer counts.

A ball has one membership rule, the one the kernels walk by: the m-cost
sum m_i w_i is summed left to right and must not exceed L, and then each
|t_i| l_i is taken in turn from the budget that is left.  enumerate_ball
lists the points of that rule and count_ball counts them, so the two agree
on every ball, ties on the boundary included.  Both rest on one walk in
the kernels: it visits the prefixes m_1..m_(N-1) and gives each the range
of admissible m_N.  enumerate_ball steps through each range and lists the
twists of every m-vector.  count_ball reads the prefixes in batches of at
most 2^12, and one splitter expands their ranges, and each cuff's twists
after them, into numpy passes of at most 2^12 terms, which keeps its memory
bounded at any radius.  It makes the same float operations as the
enumeration, so the counts agree bit for bit.  A twist bound
floor(b / l_i) too large for int64 arithmetic makes count_ball raise
ArithmeticError rather than wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from . import _kernels
from .topology import PantsDecomposition


@dataclass(frozen=True)
class DTPoint:
    """A point (m, t) of Dehn-Thurston coordinates: tuples of ints of equal
    length, every m_i >= 0.  The constructor converts and checks them;
    enumerate_ball alone builds its points without the checks, since the
    kernels' walk yields only such tuples."""

    m: tuple  # nonnegative integers
    t: tuple  # integers

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(self, "t", tuple(int(v) for v in self.t))
        if len(self.m) != len(self.t):
            raise ValueError("m and t must have equal length")
        if any(v < 0 for v in self.m):
            raise ValueError("intersection numbers m_i must be nonnegative")


@dataclass(frozen=True)
class CombWeights:
    width: tuple  # w_i > 0, collar widths w(l_i) in the geometric case
    length: tuple  # l_i > 0

    def __post_init__(self):
        object.__setattr__(self, "width", tuple(float(v) for v in self.width))
        object.__setattr__(self, "length", tuple(float(v) for v in self.length))
        if len(self.width) != len(self.length):
            raise ValueError("weight vectors must have equal length")
        ok = all(0 < v < math.inf for v in self.width + self.length)
        if not ok:
            raise ValueError("weights must be strictly positive and finite")


def parity_masks(dec: PantsDecomposition) -> tuple:
    """Per-region bitmasks of cuffs with odd slot multiplicity.

    A cuff hitting the same region twice contributes 2*m_i to that region's
    sum, so only odd-multiplicity cuffs constrain the parity.
    """
    masks = []
    for j in range(len(dec.regions)):
        cuffs = dec.region_cuffs(j)
        mask = 0
        for i in set(cuffs):
            if cuffs.count(i) % 2 == 1:
                mask |= 1 << (i - 1)
        masks.append(mask)
    return tuple(masks)


def in_lambda(p: DTPoint, dec: PantsDecomposition) -> bool:
    """Membership of an integer point in the multicurve semigroup."""
    N = dec.surface.cuff_count
    if len(p.m) != N:
        raise ValueError("point has %d cuffs, decomposition has %d" % (len(p.m), N))
    if any(mi == 0 and ti < 0 for mi, ti in zip(p.m, p.t)):
        return False
    for j in range(len(dec.regions)):
        if sum(p.m[i - 1] for i in dec.region_cuffs(j)) % 2 == 1:
            return False
    return True


def comb_length(p, wts: CombWeights) -> float:
    if len(p.m) != len(wts.width):
        raise ValueError("dimension mismatch")
    return sum(
        mi * wi + abs(ti) * li
        for mi, ti, wi, li in zip(p.m, p.t, wts.width, wts.length)
    )


def enumerate_ball(
    dec: PantsDecomposition, wts: CombWeights, L: float
) -> Iterator[DTPoint]:
    """Nonzero semigroup points with combinatorial length <= L, by the
    membership rule above, in lexicographic order of (m_1..m_N), then of
    (t_1..t_N): exactly the count_ball(dec, wts, L) points.

    When w_i > L no m-vector with m_i > 0 is ever visited, so ultra-wide
    collars cost nothing.  A radius L <= 0 gives no points; a NaN or
    infinite one raises ValueError.
    """
    new = object.__new__
    for m, budget in _kernels.ball_m_vectors(wts.width, parity_masks(dec), float(L)):
        for t in _kernels.ball_t_vectors(wts.length, m, budget):
            if any(m) or any(t):
                point = new(DTPoint)
                fields = point.__dict__
                fields["m"] = m
                fields["t"] = t
                yield point


def count_ball(dec: PantsDecomposition, wts: CombWeights, L: float) -> int:
    """Cardinality of enumerate_ball without materializing the stream: the
    twist vectors of each m-vector are counted in array passes, the last
    twist in closed form (0 for L <= 0; a NaN or infinite L raises
    ValueError, and a twist bound past int64 ArithmeticError)."""
    return _kernels.count_ball(wts.width, wts.length, parity_masks(dec), float(L))
