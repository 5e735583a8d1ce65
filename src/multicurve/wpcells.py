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
stops at the first that is not finite.  mc_result keeps both of its sums
exactly rounded (math.fsum); it subtracts the mean in numpy, one bounded
chunk at a time, and squares each deviation with Python's **, called from
numpy's object loop.  numpy is imported by the functions that draw or read
arrays, not with the module: importing it takes about 0.11 s, more than the
0.09 s in which a fresh interpreter imports the command line, which a
command that draws nothing need not pay.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .hypfun import _CHUNK, EPSILON, TORUS_MAX_SYSTOLE, FNPoint, chunked_tolist, r_weight
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


def _floats(values):
    """The values as Python floats; a numpy array is read in bounded chunks."""
    import numpy as np

    return chunked_tolist(values) if isinstance(values, np.ndarray) else values


def _squares(values, mean: float):
    """Lists of the squared deviations (v - mean) ** 2 as Python floats, one
    per chunk of _CHUNK values.  Each chunk is subtracted in numpy, the same
    correctly rounded subtraction as Python's (inf or NaN where Python gives
    them, silently), and squared by numpy's object loop, which calls Python's
    own ** on each deviation: the same bits, and the same OverflowError
    where a square overflows.  numpy's float d * d is one rounded product,
    which differs from the C library's pow(d, 2.0) that ** calls in the last
    bit of about one square in a thousand, and that moved the standard error
    of some 16-sample estimates."""
    import numpy as np

    for lo in range(0, len(values), _CHUNK):
        with np.errstate(all="ignore"):
            deviations = np.asarray(values[lo : lo + _CHUNK], dtype=float) - mean
        yield np.power(deviations.astype(object), 2).tolist()


def mc_result(values, volume: float, seed: int) -> MCResult:
    """Monte Carlo summary of per-sample values over a region of the given
    volume: estimate = volume × sample mean, stderr = volume × std/√count.

    Both sums are exactly rounded (math.fsum), of the values and of their
    squared deviations.
    """
    count = len(values)
    mean = math.fsum(_floats(values)) / count
    squares = itertools.chain.from_iterable(_squares(values, mean))
    var = math.fsum(squares) / (count - 1)
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

