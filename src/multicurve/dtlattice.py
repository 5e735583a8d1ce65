"""Dehn-Thurston coordinates: membership, twisting, scaling, combinatorial
length, and enumeration/counting of lattice points in length balls.

A surface with N cuffs gets coordinates (m_i, t_i), i = 1..N.  Integral
multicurves form the semigroup of points with m_i >= 0 integers, t_i
integers, subject to
  (1) m_i = 0  =>  t_i >= 0, and
  (2) for each pair of pants, the m_i over its non-cusp boundary slots
      (counted with multiplicity) sum to an even number.
Real points (measured laminations) satisfy only (1).

The combinatorial length against per-cuff weights (w_i, l_i) is
  sum_i m_i * w_i + |t_i| * l_i,
a weighted L1 norm on the positive part; balls in it are what the Thurston
measure layer counts.

A ball has one membership rule, the one the kernels walk by: the m-cost
sum m_i w_i is summed left to right and must not exceed L, and then each
|t_i| l_i is taken in turn from the budget that is left.  enumerate_ball
lists the points of that rule and count_ball counts them, so the two agree
on every ball, ties on the boundary included.  (The compiled count_ball
still differs where a twist budget rounds below zero; see _pykernels.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from . import _kernels
from ._kernels import _pykernels
from .topology import PantsDecomposition


@dataclass(frozen=True)
class DTPoint:
    m: tuple  # nonnegative integers
    t: tuple  # integers

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(self, "t", tuple(int(v) for v in self.t))
        if len(self.m) != len(self.t):
            raise ValueError("m and t must have equal length")
        if any(v < 0 for v in self.m):
            raise ValueError("intersection numbers m_i must be nonnegative")

    def is_zero(self) -> bool:
        return not any(self.m) and not any(self.t)


@dataclass(frozen=True)
class DTRealPoint:
    m: tuple  # nonnegative reals
    t: tuple  # reals

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(float(v) for v in self.m))
        object.__setattr__(self, "t", tuple(float(v) for v in self.t))
        if len(self.m) != len(self.t):
            raise ValueError("m and t must have equal length")
        if any(v < 0 for v in self.m):
            raise ValueError("intersection numbers m_i must be nonnegative")
        if any(mi == 0 and ti < 0 for mi, ti in zip(self.m, self.t)):
            raise ValueError("m_i = 0 requires t_i >= 0")


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


def twist(p, i: int, k: int):
    """k-fold Dehn twist along cuff i: t_i -> t_i + k*m_i."""
    if not (1 <= i <= len(p.m)):
        raise IndexError("cuff index %d out of range 1..%d" % (i, len(p.m)))
    t = list(p.t)
    t[i - 1] = t[i - 1] + k * p.m[i - 1]
    return type(p)(p.m, tuple(t))


def scale(p: DTRealPoint, c: float) -> DTRealPoint:
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return DTRealPoint(tuple(v * c for v in p.m), tuple(v * c for v in p.t))


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
    _check_radius(L)
    if L <= 0:
        return
    for m, budget in _pykernels.ball_m_vectors(wts.width, parity_masks(dec), float(L)):
        for t in _pykernels.ball_t_vectors(wts.length, m, budget):
            if any(m) or any(t):
                yield DTPoint(m, t)


def _check_radius(L: float) -> None:
    if not math.isfinite(L):
        raise ValueError("ball radius must be finite, got %r" % (L,))


def count_ball(dec: PantsDecomposition, wts: CombWeights, L: float) -> int:
    """Cardinality of enumerate_ball without materializing the stream: the
    twist vectors of each m-vector are counted in closed form (0 for
    L <= 0; a NaN or infinite L raises ValueError)."""
    _check_radius(L)
    return _kernels.count_ball(wts.width, wts.length, parity_masks(dec), float(L))
