"""Concrete hyperbolic geometry on the once-punctured torus.

Points are Fenchel-Nielsen pairs (ell, tau) for a fixed base curve alpha.
The holonomy representation sends alpha to A = diag(e^{l/2}, e^{-l/2}) and
the dual curve beta to the twisted matrix

    B(tau) = diag(e^{tau/2}, e^{-tau/2}) · [[cosh(l/2), 1], [1, cosh(l/2)]] / sinh(l/2),

chosen so that tr[A, B] = -2 (cusp condition) and both off-diagonal entries
are positive at tau = 0.  The traces

    x = tr A = 2 cosh(l/2)
    y = tr B = 2 coth(l/2) cosh(tau/2)
    z = tr AB = 2 coth(l/2) cosh((tau + l)/2)

satisfy the cusped trace identity x² + y² + z² = xyz.  Simple closed curves
correspond to slopes p/q; their traces follow the tree recursion
t(child) = t(parent1)·t(parent2) - t(coparent) from the root triangles
(0/1, 1/0, 1/1) -> (x, y, z) and (0/1, 1/0, -1/1) -> (x, y, xy - z), and a
full twist tau -> tau + l acts as the tree move (x, y, z) -> (x, z, xz - y).
Lengths are 2·arccosh(trace/2).

The fundamental-domain Monte Carlo integrates over the Bers box
{0 < ell <= 2·arccosh(3/2), 0 <= tau < ell} with respect to d(ell) d(tau),
keeping points where the base curve realizes the systole and weighting by
1/multiplicity; every surface has a systole of length at most
2·arccosh(3/2), so every isometry class is represented.  No further
symmetry factor enters: a 400² grid quadrature of the weighted systole
indicator over the box gives 1.644844, against π²/6 = 1.644934, the
volume of the moduli space in the bundled table.

numpy is imported by sample_bers_box, the one function here that builds
arrays: importing it takes about 0.11 s, more than the 0.09 s in which a
fresh interpreter imports the command line, and the single-point commands
(`torus count`, `torus spectrum`) never need it.
"""

from __future__ import annotations

import gc
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

from . import _kernels
from .hypfun import TORUS_MAX_SYSTOLE, chunked_tolist
from .runpar import ordered_map
from .wpcells import MCResult, _rng, mc_result

BERS_11 = TORUS_MAX_SYSTOLE
LENGTH_TIE_TOL = 1e-9
# top of the b_hat ladder: the unit-ball estimate verify and `torus mc`'s
# B and B2 functionals use, and the one the verify tolerances were tuned at
BHAT_LMAX = 80.0
# the one thread whose enumerate_short_slopes calls pause the collector
_MAIN_THREAD = threading.main_thread().ident


@dataclass(frozen=True)
class TorusPoint:
    ell: float
    tau: float

    def __post_init__(self):
        if not (0 < self.ell < math.inf):
            raise ValueError("base length must be positive and finite")
        if not math.isfinite(self.tau):
            raise ValueError("twist must be finite")


@dataclass(frozen=True)
class FrickeTriple:
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name, v in (("x", self.x), ("y", self.y), ("z", self.z)):
            if not (2 < v < math.inf):
                raise ValueError("trace %s must lie in (2, inf), got %r" % (name, v))
        lhs = self.x**2 + self.y**2 + self.z**2
        rhs = self.x * self.y * self.z
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs)):
            raise ValueError(
                "traces violate the cusp identity x²+y²+z² = xyz: %r" % ((self.x, self.y, self.z),)
            )


class Slope(NamedTuple("Slope", [("p", int), ("q", int)])):
    """The slope p/q of a simple closed curve: q > 0 and gcd(p, q) = 1, or
    the reserved 1/0.  A named tuple, so that a spectrum of thousands of
    slopes costs one tuple each.  Every public construction, by position,
    keyword, _make, _replace or unpickling, goes through the checks;
    enumerate_short_slopes alone builds its slopes with tuple.__new__,
    since the walk lists only reduced pairs."""

    __slots__ = ()

    def __new__(cls, p, q):
        if q < 0 or (q == 0 and p != 1):
            raise ValueError("slope must have q > 0, or be the reserved 1/0")
        if math.gcd(p, q) != 1:
            raise ValueError("slope %d/%d is not reduced" % (p, q))
        return tuple.__new__(cls, (p, q))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __str__(self):
        return "%d/%d" % (self.p, self.q)


def fn_to_triple(X: TorusPoint) -> FrickeTriple:
    try:
        x = 2.0 * math.cosh(X.ell / 2.0)
        coth = math.cosh(X.ell / 2.0) / math.sinh(X.ell / 2.0)
        y = 2.0 * coth * math.cosh(X.tau / 2.0)
        z = 2.0 * coth * math.cosh((X.tau + X.ell) / 2.0)
    except OverflowError:
        raise ArithmeticError(
            "trace overflow at ell=%r tau=%r" % (X.ell, X.tau)
        ) from None
    if not all(map(math.isfinite, (x, y, z))):
        raise ArithmeticError("trace overflow at ell=%r tau=%r" % (X.ell, X.tau))
    if x <= 2.0 or y <= 2.0 or z <= 2.0:
        # mathematically x, y, z > 2 always; equality is float degeneration
        # (cosh rounds to 1 for tiny ell, coth to 1 for huge ell)
        raise ArithmeticError("trace degenerated at ell=%r tau=%r" % (X.ell, X.tau))
    return FrickeTriple(x, y, z)


def slope_trace(X: TorusPoint, s: Slope) -> float:
    tr = fn_to_triple(X)
    trace = _kernels.trace_of_slope(tr.x, tr.y, tr.z, s.p, s.q)
    if not math.isfinite(trace):
        # deep slopes (e.g. Fibonacci ones) overflow the trace recursion,
        # which then turns inf - inf into NaN
        raise ArithmeticError(
            "trace of slope %s overflows at ell=%r tau=%r" % (s, X.ell, X.tau)
        )
    return trace


def slope_length(X: TorusPoint, s: Slope) -> float:
    trace = slope_trace(X, s)
    if trace <= 2:
        raise ValueError("slope %s has trace %r <= 2: not a hyperbolic point" % (s, trace))
    return 2.0 * math.acosh(trace / 2.0)


def enumerate_short_slopes(X: TorusPoint, L: float) -> list:
    """All slopes of length <= L with their lengths, sorted by length
    (ties by denominator then numerator).

    Each listed slope is built without Slope's checks: slopes_upto lists
    0/1, the reserved 1/0 and Stern-Brocot mediants of Farey neighbours,
    whose ends satisfy |p_l q_r - p_r q_l| = 1, so every pair it lists
    already has q > 0 and gcd(p, q) = 1.

    The cyclic collector is held off while the walk runs and the list is
    built.  The list's tuples hold only floats, ints and Slopes, which form
    no cycle, so collecting them would free nothing and only rescan them.
    Only the main thread pauses, and only a collector that is on; it turns
    the collector back on as it leaves, error or not.  A call from another
    thread, such as one of ordered_map's pool, leaves the collector alone:
    threads that each saved and restored its state could interleave so as
    to leave it off."""
    if L <= 0:
        return []
    tr = fn_to_triple(X)
    acosh, new = math.acosh, tuple.__new__
    pause = gc.isenabled() and threading.get_ident() == _MAIN_THREAD
    if pause:
        gc.disable()
    try:
        return [(new(Slope, (p, q)), 2.0 * acosh(t / 2.0))
                for t, q, p in _kernels.slopes_upto(tr.x, tr.y, tr.z, L)]
    finally:
        if pause:
            gc.enable()


def count_s(X: TorusPoint, k: int, L: float) -> int:
    """Number of slopes whose k-fold cover is shorter than L."""
    if k < 1:
        raise ValueError("weight must be a positive integer")
    if L <= 0:
        return 0
    tr = fn_to_triple(X)
    return _kernels.count_upto(tr.x, tr.y, tr.z, L / k)


def count_b(X: TorusPoint, L: float) -> int:
    """All integral multiples of slopes with length <= L (one-cuff
    multicurves are k·slope, so this sums floor(L/length))."""
    if L <= 0:
        return 0
    tr = fn_to_triple(X)
    return _kernels.count_multi(tr.x, tr.y, tr.z, L)


def estimate_B(X: TorusPoint, Lmax: float) -> list:
    """Ladder of normalized counts count_b(L)/L² at L = Lmax/4, Lmax/2 and
    Lmax; the last entry is the working estimate of the unit-ball volume at
    X, and the last two give convergence_diagnostic its doubling."""
    if Lmax < 10:
        raise ValueError("Lmax must be at least 10")
    return [(L, count_b(X, L) / L**2) for L in (Lmax / 4, Lmax / 2, Lmax)]


def b_hat(X: TorusPoint, Lmax: float) -> float:
    return estimate_B(X, Lmax)[-1][1]


def convergence_diagnostic(ladder: list) -> float:
    """Relative change over the last doubling of the ladder."""
    (_, prev), (_, last) = ladder[-2], ladder[-1]
    if last == 0:
        return math.inf
    return abs(last - prev) / last


def systole_slope(X: TorusPoint) -> tuple:
    """Shortest slope(s): returns (slope, length, multiplicity); the slope
    reported is the tie with smallest (q, p).

    Every surface has a systole of length at most BERS_11, so the spectrum
    is listed to BERS_11 + LENGTH_TIE_TOL.  No slope there means the traces
    have degenerated in floating point, and ArithmeticError is raised."""
    slopes = enumerate_short_slopes(X, BERS_11 + LENGTH_TIE_TOL)
    if not slopes:
        raise ArithmeticError(
            "traces degenerated at ell=%r tau=%r: no slope of length <= %r"
            % (X.ell, X.tau, BERS_11)
        )
    shortest = slopes[0][1]
    ties = [(s, l) for s, l in slopes if l <= shortest + LENGTH_TIE_TOL]
    best = min(ties, key=lambda item: (item[0].q, item[0].p))
    return best[0], shortest, len(ties)


def _systole_weight(X: TorusPoint):
    """1/multiplicity when the base curve is a systole, else 0 (the point is
    represented elsewhere in the box)."""
    _, shortest, mult = systole_slope(X)
    return 0.0 if shortest < X.ell - LENGTH_TIE_TOL else 1.0 / mult


def sample_bers_box(samples: int, seed: int):
    """Points of the box {0 < ell <= BERS_11, 0 <= tau < ell} with density
    d(ell) d(tau); vectorized and seed-deterministic."""
    import numpy as np

    rng = _rng(seed, 0x70B5)
    u = rng.random(samples)
    v = rng.random(samples)
    ells = BERS_11 * np.sqrt(1.0 - u)  # 1-u in (0,1]: no zero lengths
    taus = ells * v
    return ells, taus


def mc_moduli(functional, samples: int, seed: int, threads: int = 1) -> MCResult:
    """Monte Carlo moduli-space integral of a functional of TorusPoint.

    estimate = boxVolume × mean of weight·functional, where the weight is the
    fundamental-domain indicator 1/multiplicity.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    ells, taus = sample_bers_box(samples, seed)
    points = map(TorusPoint, chunked_tolist(ells), chunked_tolist(taus))

    def weighted(X: TorusPoint) -> float:
        w = _systole_weight(X)
        if w == 0.0:
            return 0.0
        value = functional(X)
        if not math.isfinite(value):
            raise ArithmeticError(
                "functional returned %r at ell=%r tau=%r" % (value, X.ell, X.tau)
            )
        return w * value

    values = ordered_map(weighted, points, threads=threads)
    return mc_result(values, BERS_11**2 / 2.0, seed)
