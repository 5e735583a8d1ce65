"""Chart-level Weil-Petersson integration in Fenchel-Nielsen coordinates.

The coordinate box {0 < l_i <= bers, 0 <= tau_i < l_i} splits into cells by
which cuffs are thin (l <= eps): the first thin_count cuffs run over
(thin_floor, eps], the rest over (eps, bers].  The volume form is
prod dl_i dtau_i, so integrating out the twists leaves a factor l_i per
cuff.  Exact values:

    cell volume:  prod_thin (eps² - floor²)/2 · prod_thick (bers² - eps²)/2
    ∫ F² :        prod_thin (1/log(floor) - 1/log(eps)) · prod_thick (bers² - eps²)/2

(with 1/log(0) read as 0), where F is the product of 1/(l·|log l|) over thin
cuffs.  These are chart integrals: they over-count moduli-space integrals;
genuine moduli averages come from the torus backend's fundamental domain.

Draws are made as numpy arrays and reach the code that uses them as Python
floats: each batch of lengths is validated once (FNPoint.from_draws), not
point by point, and its points are built from the columns of bounded
chunks.  mc_integrate checks each functional value as it is computed and
stops at the first that is not finite.

mc_result gives fsum's mean and variance of the values bit for bit, by one
of two routes chosen by their number.  Below about a thousand it computes
them as written.  Above, it reads one float64 array in blocks of 4,096,
makes no Python float per value, and sums exactly by exponent.  It takes
numpy's RN(d·d) for a square wherever the exact square lies within 0.45 of
the float spacing below RN(d·d): any pow with error under 0.55 ulp returns
that float there, glibc's too, which ** calls (on glibc 2.36, wherever pow
differed from RN(d·d) the exact square lay at least 0.4933 of a spacing
away).  The other tenth of the squares come from ** itself.

numpy is imported by the functions that draw or read arrays, not with the
module: importing it takes about 0.11 s, more than the 0.09 s in which a
fresh interpreter imports the command line, which a command that draws
nothing need not pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hypfun import EPSILON, TORUS_MAX_SYSTOLE, FNPoint, chunked_tolist, r_weight
from .runpar import ordered_map
from .topology import SurfaceType


@dataclass(frozen=True)
class CellSpec:
    surface: SurfaceType
    thin_count: int  # k: number of thin cuffs (the first k indices)
    eps: float = EPSILON
    bers_bound: float = TORUS_MAX_SYSTOLE
    thin_floor: float = 0.0  # > 0 only for divergence-witness floors

    def __post_init__(self):
        if not (0 <= self.thin_count <= self.surface.cuff_count):
            raise ValueError("thin_count must lie in 0..N")
        if not (0 < self.eps < 1 < self.bers_bound):
            raise ValueError("need 0 < eps < 1 < bers_bound")
        if not (0 <= self.thin_floor < self.eps):
            raise ValueError("thin_floor must lie in [0, eps)")

    @property
    def thick_count(self) -> int:
        return self.surface.cuff_count - self.thin_count


@dataclass(frozen=True)
class MCResult:
    estimate: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


# Below _SHORT values mc_result sums Python floats as its definition reads;
# from _SHORT on it works in float64 blocks of _BLOCK values.  On 2 shared
# vCPUs (Python 3.11, numpy 2.4), 512 values took 0.08 ms as written and
# 0.16 ms in blocks, 1,024 about 0.18 ms either way, and 2,048 0.40 against
# 0.21 ms.  Blocks of 8,192 ran no faster and raised the peak memory of
# mc_moduli's 40,000-value summaries from 2.7 to 3.3 MB.
_SHORT = 1024
_BLOCK = 1 << 12
# Each bucket adds mantissa heads of at most 2^27: below 2^26 terms every
# partial sum is an integer under 2^53, which float64 adds exactly.
_BUCKET_TERMS = 1 << 26
_BUCKETS = 2098  # frexp exponents -1073..1024
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# Dekker's product is exact for |d| in [2^-400, 2^500]: no square or error
# term there underflows or overflows.
_TINY, _HUGE = 2.0**-400, 2.0**500
# RN(d·d) stands for d ** 2 where the exact square lies within this share
# of the float spacing below RN(d·d).
_NEAR = 0.45
_EXPONENT = 0x7FF0 << 48  # the exponent bits of a float64


def _exact_sum(blocks, count: int):
    """The sum of float64 blocks of count values in all, rounded once, so
    exactly math.fsum's; None where math.fsum itself must decide: a block
    that is None, a value that is not finite, an exact zero (whose sign is
    fsum's choice), count · max|v| at or past 2^1023, near where fsum
    raises on an intermediate overflow, or _BUCKET_TERMS values or more.

    Each value is m · 2^e with 1/2 <= |m| < 1, both read exactly by frexp,
    and 2^27 · m splits exactly into an integer head h = floor(2^27 · m),
    |h| <= 2^27, and a fraction f in [0, 1) of 26 bits.  np.bincount sums
    heads and fractions per exponent, exactly; the buckets are joined in
    Python ints, in units of 2^-1126, and rounded by one int true division.
    """
    import numpy as np

    if count >= _BUCKET_TERMS:
        return None
    heads, fracs = np.zeros(_BUCKETS), np.zeros(_BUCKETS)
    for block in blocks:
        if block is None:
            return None
        with np.errstate(invalid="ignore"):
            mant, expo = np.frexp(block)
            mant *= 2.0**27
            head = np.floor(mant)
            mant -= head  # NaN for an infinite value
        expo += 1073
        heads += np.bincount(expo, head, _BUCKETS)
        fracs += np.bincount(expo, mant, _BUCKETS)
    if not (np.isfinite(heads).all() and np.isfinite(fracs).all()):
        return None
    used = np.flatnonzero((heads != 0) | (fracs != 0))
    if not len(used) or int(used[-1]) - 1073 + count.bit_length() > 1023:
        return None
    total = 0
    for bucket, head, frac in zip(used.tolist(), heads[used].tolist(),
                                  (fracs[used] * 2.0**26).tolist()):
        # m · 2^e = (2^26 · h + 2^26 · f) · 2^(bucket - 1126)
        total += ((int(head) << 26) + int(frac)) << bucket
    return total / (1 << 1126) if total else None


def _squares(values, mean: float):
    """Blocks of the squared deviations (v - mean) ** 2 of a float64 array,
    each the float Python's ** gives (_square).  A block with a deviation
    past _HUGE, or one that is not finite, is None: the caller then squares
    every deviation with ** in order, so that an overflow raises where and
    as it always did."""
    import numpy as np

    for lo in range(0, len(values), _BLOCK):
        with np.errstate(invalid="ignore"):
            d = values[lo : lo + _BLOCK] - mean
        if not np.abs(d).max() <= _HUGE:  # NaN fails the test too
            yield None
            return
        yield _square(d)


def _square(d):
    """d ** 2 for a block of deviations |d| <= _HUGE.  Dekker's product (a
    Veltkamp split) gives RN(d·d) and its exact error; where the exact
    square lies within _NEAR of the float spacing below RN(d·d), RN(d·d)
    is kept, and every other deviation, and every |d| under _TINY, is
    squared by **."""
    import numpy as np

    square = d * d
    split = d * _SPLIT
    head = split - (split - d)
    tail = d - head
    error = ((head * head - square) + 2.0 * (head * tail)) + tail * tail
    # the spacing below RN(d·d) is 2^-52 times its leading power of two, or
    # half that at a power of two; but RN(d·d) is a power of two only where
    # d is one, and then error is 0
    unit = (square.view(np.int64) & _EXPONENT).view(float)
    near = np.abs(error) <= unit * (_NEAR * 2.0**-52)
    slow = np.flatnonzero(~near | (np.abs(d) < _TINY))
    if len(slow):
        square[slow] = [x**2 for x in d[slow].tolist()]
    return square


def mc_result(values, volume: float, seed: int) -> MCResult:
    """Monte Carlo summary of per-sample values over a region of the given
    volume: estimate = volume × sample mean, stderr = volume × std/√count.

    The mean is math.fsum(values) / count and the variance is
    math.fsum((v - mean) ** 2 for v in values) / (count - 1), bit for bit
    and raised error for raised error.  Below _SHORT values they are
    computed so.  From _SHORT on, the values are read as one float64 array
    in blocks, and both sums are exact (_exact_sum), rounded once as fsum
    rounds.  A square there is numpy's RN(d·d) wherever the exact square
    lies within 0.45 of the float spacing below RN(d·d) (_square): every
    other float is then more than 0.55 of a spacing away, so any pow with
    error below 0.55 ulp returns RN(d·d) to **.  glibc's pow, which **
    calls, is documented at a little over half an ulp since glibc 2.28.  On
    glibc 2.36 it differed from RN(d·d) on 5,045 of 6,000,000 seeded
    deviations, each time with the exact square at least 0.4933 of the
    spacing from RN(d·d).  The other squares, about one in ten, come from
    ** itself.
    """
    count = len(values)
    if count < _SHORT:
        if hasattr(values, "tolist"):
            values = values.tolist()
        mean = math.fsum(values) / count
        var = math.fsum((v - mean) ** 2 for v in values) / (count - 1)
    else:
        import numpy as np

        values = np.asarray(values, dtype=float)
        blocks = (values[lo : lo + _BLOCK] for lo in range(0, count, _BLOCK))
        total = _exact_sum(blocks, count)
        if total is None:
            total = math.fsum(chunked_tolist(values))
        mean = total / count
        squares = _exact_sum(_squares(values, mean), count)
        if squares is None:
            squares = math.fsum((v - mean) ** 2 for v in chunked_tolist(values))
        var = squares / (count - 1)
    return MCResult(
        estimate=volume * mean,
        stderr=volume * math.sqrt(var / count),
        samples=count,
        seed=seed,
    )


def cell_volume(spec: CellSpec) -> float:
    thin = (spec.eps**2 - spec.thin_floor**2) / 2
    thick = (spec.bers_bound**2 - spec.eps**2) / 2
    return thin**spec.thin_count * thick**spec.thick_count


def f2_cell_integral(spec: CellSpec) -> float:
    """Exact integral of F² over the cell; the thin factor is
    ∫ dl/(l·log²l) = -1/log(eps) + 1/log(floor)."""
    thin = -1.0 / math.log(spec.eps)
    if spec.thin_floor > 0:
        thin += 1.0 / math.log(spec.thin_floor)
    thick = (spec.bers_bound**2 - spec.eps**2) / 2
    return thin**spec.thin_count * thick**spec.thick_count


def f_on_cell(spec: CellSpec, fn: FNPoint) -> float:
    """Product of R over the cell's thin cuffs (F restricted to the chart)."""
    out = 1.0
    for i in range(spec.thin_count):
        out *= r_weight(fn.lengths[i])
    return out


def _rng(seed: int, stream: int):
    """numpy Generator on the Philox stream keyed by (seed, stream)."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


def _draw_cell(spec: CellSpec, count: int, seed: int):
    """Vectorized cell sample: lengths with density l on their ranges (the
    twist integral), twists uniform in [0, l)."""
    import numpy as np

    rng = _rng(seed, 0xCE11)
    N = spec.surface.cuff_count
    u = rng.random((count, N))
    v = rng.random((count, N))
    lo2 = np.empty(N)
    hi2 = np.empty(N)
    lo2[: spec.thin_count] = spec.thin_floor**2
    hi2[: spec.thin_count] = spec.eps**2
    lo2[spec.thin_count :] = spec.eps**2
    hi2[spec.thin_count :] = spec.bers_bound**2
    # 1-u lies in (0, 1]: keeps lengths strictly above the lower limit
    ells = np.sqrt(lo2 + (hi2 - lo2) * (1.0 - u))
    taus = ells * v
    return ells, taus


def sample_cell(spec: CellSpec, count: int, seed: int):
    """I.i.d. points of the cell with the coordinate-volume density;
    deterministic for a given seed."""
    if count < 1:
        raise ValueError("count must be at least 1")
    yield from FNPoint.from_draws(*_draw_cell(spec, count, seed))


def mc_integrate(fn_of_fn, spec: CellSpec, count: int, seed: int) -> MCResult:
    """Monte Carlo integral of a functional over the cell.

    estimate = cell volume × sample mean, stderr = volume × std/√count.
    The first non-finite functional value aborts with its point.
    """
    if count < 2:
        raise ValueError("need at least 2 samples for an error estimate")

    def checked(point):
        value = fn_of_fn(point)
        if not math.isfinite(value):
            raise ArithmeticError(
                "functional returned %r at lengths=%s twists=%s"
                % (value, point.lengths, point.twists)
            )
        return value

    points = FNPoint.from_draws(*_draw_cell(spec, count, seed))
    return mc_result(ordered_map(checked, points), cell_volume(spec), seed)


def f_power_mc(spec: CellSpec, power: float, count: int, seed: int) -> MCResult:
    """Monte Carlo of F^power over the cell with collar-weighted thin draws.

    Thin lengths are drawn with density proportional to 1/(l·|log l|^{3/2}),
    which keeps the estimator variance finite for power = 2 even with
    thin_floor = 0 (the plain length-density sampler does not: F^4 is not
    integrable near l = 0, so its sample error bars are meaningless there).
    For power > 2 a positive thin_floor is required for finite variance.
    Thick cuffs and all twists integrate out exactly.  Fully vectorized and
    seed-deterministic; thread counts never enter.
    """
    import numpy as np

    if count < 2:
        raise ValueError("need at least 2 samples for an error estimate")
    if not math.isfinite(power):
        raise ValueError("power must be finite, got %r" % (power,))
    if power > 2 and spec.thin_floor == 0 and spec.thin_count > 0:
        raise ValueError("power > 2 needs a positive thin_floor (not integrable)")
    k = spec.thin_count
    thick = (spec.bers_bound**2 - spec.eps**2) / 2
    if k == 0:
        return MCResult(estimate=thick**spec.thick_count, stderr=0.0,
                        samples=count, seed=seed)
    g_hi = 2.0 / math.sqrt(-math.log(spec.eps))
    g_lo = 2.0 / math.sqrt(-math.log(spec.thin_floor)) if spec.thin_floor > 0 else 0.0
    z = g_hi - g_lo  # integral of dl/(l·|log l|^{3/2}) over the length range
    rng = _rng(seed, 0xCE11)
    u = rng.random((count, k))
    # 1-u in (0,1]: g stays strictly above g_lo, so lengths stay above the floor
    g = g_lo + (g_hi - g_lo) * (1.0 - u)
    s = 4.0 / (g * g)  # s = |log l|; work with s so tiny lengths never underflow
    # weight = R(l)^power · l · 1/q(l) = l^{2-power} · s^{1.5-power} · z
    with np.errstate(all="ignore"):
        w = np.exp((power - 2.0) * s) * s ** (1.5 - power) * z
        vals = w.prod(axis=1) * thick**spec.thick_count
    if not np.isfinite(vals).all():
        raise ArithmeticError(
            "F^%r weights are not finite over thin lengths above floor %r"
            % (power, spec.thin_floor)
        )
    try:
        return mc_result(vals, 1.0, seed)
    except OverflowError as err:
        raise ArithmeticError(
            "F^%r weights overflow when summed or squared over thin lengths above floor %r"
            % (power, spec.thin_floor)
        ) from err

