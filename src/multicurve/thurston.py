"""Thurston measure of combinatorial length balls.

The unit ball {sum m_i w_i + |t_i| l_i <= 1} inside the real coordinate cone
has Lebesgue volume (2^N/(2N)!) * prod 1/(w_i l_i): slicing off one cuff pair
(m, t) leaves the same shape one dimension down, and the 2D base case
{w m + l |t| <= 1, m >= 0} is a triangle of area 1/(w l) = (2^1/2!) / (w l).
The Thurston measure weights this by 2^(g-N) (the index of the even-parity
sublattice relative to the region constraints), giving

    measure = 2^(g-N) * 2^N/(2N)! * prod_i 1/(w_i * l_i).

The lattice estimator count_ball(L)/L^(2N) converges to the same value and
adjudicates the constant.
"""

from __future__ import annotations

import math

from . import dtlattice
from .dtlattice import CombWeights
from .topology import PantsDecomposition, SurfaceType


def comb_ball_measure(surface: SurfaceType, wts: CombWeights) -> float:
    g, N = surface.genus, surface.cuff_count
    if len(wts.width) != N:
        raise ValueError("weights have %d cuffs, surface needs %d" % (len(wts.width), N))
    prod = 1.0
    for w, l in zip(wts.width, wts.length):
        prod /= w * l
    return 2.0 ** (g - N) * 2.0**N / math.factorial(2 * N) * prod


def lattice_ball_estimate(dec: PantsDecomposition, wts: CombWeights, L: float) -> float:
    if not 0 < L < math.inf:
        raise ValueError("ball radius must be positive and finite, got %r" % (L,))
    N = dec.surface.cuff_count
    return dtlattice.count_ball(dec, wts, L) / L ** (2 * N)


_SCALES = {"muThu", "nuThu"}


def normalize(value: float, frm: str, to: str, surface: SurfaceType) -> float:
    """Convert between the two standard normalizations; they differ by the
    lattice index 2^(2g-3+n)."""
    if frm not in _SCALES or to not in _SCALES:
        raise ValueError("normalizations are %s" % sorted(_SCALES))
    if frm == to:
        return value
    index = 2.0 ** (2 * surface.genus - 3 + surface.punctures)
    return value * index if to == "nuThu" else value / index
