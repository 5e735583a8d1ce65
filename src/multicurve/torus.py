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
1/(multiplicity × symmetryFactor); every surface has a systole of length
at most 2·arccosh(3/2), so every isometry class is represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .runpar import ordered_map
from .wpcells import MCResult, mc_result

BERS_11 = 2 * math.acosh(1.5)  # maximal systole; attained at the square torus
SYMMETRY_FACTOR = 1  # calibrated against the volume table, see config
LENGTH_TIE_TOL = 1e-9


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


@dataclass(frozen=True)
class Slope:
    p: int
    q: int

    def __post_init__(self):
        if self.q < 0 or (self.q == 0 and self.p != 1):
            raise ValueError("slope must have q > 0, or be the reserved 1/0")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("slope %d/%d is not reduced" % (self.p, self.q))

    def __str__(self):
        return "%d/%d" % (self.p, self.q)


BASE_SLOPE = Slope(0, 1)


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
    if y <= 2.0 or z <= 2.0:
        # mathematically y, z > 2 always; equality is float degeneration
        # (coth rounds to 1 for huge ell)
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
    (ties by denominator then numerator)."""
    if L <= 0:
        return []
    tr = fn_to_triple(X)
    out = []
    for p, q, trace in _kernels.slopes_upto(tr.x, tr.y, tr.z, L):
        out.append((Slope(p, q), 2.0 * math.acosh(trace / 2.0)))
    return out


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


def estimate_B(X: TorusPoint, Lmax: float, rungs: int = 3) -> list:
    """Ladder of normalized counts count_b(L)/L² at L = Lmax/2^j; the last
    entry is the working estimate of the unit-ball volume at X."""
    if Lmax < 10:
        raise ValueError("Lmax must be at least 10")
    if rungs < 2:
        raise ValueError("need at least 2 rungs for a convergence diagnostic")
    out = []
    for j in range(rungs - 1, -1, -1):
        L = Lmax / 2**j
        out.append((L, count_b(X, L) / L**2))
    return out


def b_hat(X: TorusPoint, Lmax: float, rungs: int = 3) -> float:
    return estimate_B(X, Lmax, rungs)[-1][1]


def convergence_diagnostic(ladder: list) -> float:
    """Relative change over the last doubling of the ladder."""
    (_, prev), (_, last) = ladder[-2], ladder[-1]
    if last == 0:
        return math.inf
    return abs(last - prev) / last


def systole_slope(X: TorusPoint, bers: float = BERS_11) -> tuple:
    """Shortest slope(s): returns (slope, length, multiplicity); the slope
    reported is the tie with smallest (q, p)."""
    L = bers + LENGTH_TIE_TOL
    slopes = enumerate_short_slopes(X, L)
    while not slopes:  # cannot happen for valid points; numeric safety net
        L *= 1.5
        slopes = enumerate_short_slopes(X, L)
    shortest = slopes[0][1]
    ties = [(s, l) for s, l in slopes if l <= shortest + LENGTH_TIE_TOL]
    best = min(ties, key=lambda item: (item[0].q, item[0].p))
    return best[0], shortest, len(ties)


def _systole_weight(X: TorusPoint, symmetry_factor: float, bers: float):
    """1/(multiplicity × symmetryFactor) when the base curve is a systole,
    else 0 (the point is represented elsewhere in the box)."""
    slopes = enumerate_short_slopes(X, X.ell + LENGTH_TIE_TOL)
    shortest = slopes[0][1]
    if shortest < X.ell - LENGTH_TIE_TOL:
        return 0.0
    mult = sum(1 for _, l in slopes if l <= shortest + LENGTH_TIE_TOL)
    return 1.0 / (mult * symmetry_factor)


def sample_bers_box(samples: int, seed: int, bers: float = BERS_11):
    """Points of the box {0 < ell <= bers, 0 <= tau < ell} with density
    d(ell) d(tau); vectorized and seed-deterministic."""
    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0x70B5]))
    u = rng.random(samples)
    v = rng.random(samples)
    ells = bers * np.sqrt(1.0 - u)  # 1-u in (0,1]: no zero lengths
    taus = ells * v
    return ells, taus


def mc_moduli(
    functional,
    samples: int,
    seed: int,
    symmetry_factor: float = SYMMETRY_FACTOR,
    bers: float = BERS_11,
    threads: int = 1,
) -> MCResult:
    """Monte Carlo moduli-space integral of a functional of TorusPoint.

    estimate = boxVolume × mean of weight·functional, where the weight is the
    fundamental-domain indicator 1/(multiplicity × symmetryFactor).
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    ells, taus = sample_bers_box(samples, seed, bers)
    points = [TorusPoint(ell, tau) for ell, tau in zip(ells.tolist(), taus.tolist())]

    def weighted(X: TorusPoint) -> float:
        w = _systole_weight(X, symmetry_factor, bers)
        if w == 0.0:
            return 0.0
        value = functional(X)
        if not math.isfinite(value):
            raise ArithmeticError(
                "functional returned %r at ell=%r tau=%r" % (value, X.ell, X.tau)
            )
        return w * value

    values = ordered_map(weighted, points, threads=threads)
    return mc_result(values, bers**2 / 2.0, seed)
