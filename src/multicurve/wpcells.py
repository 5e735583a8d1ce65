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
point by point, and mc_result reads numpy arrays in bounded chunks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hypfun import FNPoint, r_weight
from .runpar import ordered_map
from .topology import SurfaceType


@dataclass(frozen=True)
class CellSpec:
    surface: SurfaceType
    thin_count: int  # k: number of thin cuffs (the first k indices)
    eps: float = 0.1
    bers_bound: float = 2 * math.acosh(1.5)
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


_CHUNK = 1024  # elements of a numpy array read as Python floats at a time


def _floats(values):
    """The values as Python floats; a numpy array is read in bounded chunks."""
    if not isinstance(values, np.ndarray):
        return values
    return itertools.chain.from_iterable(
        values[lo : lo + _CHUNK].tolist() for lo in range(0, len(values), _CHUNK)
    )


def mc_result(values, volume: float, seed: int) -> MCResult:
    """Monte Carlo summary of per-sample values over a region of the given
    volume: estimate = volume × sample mean, stderr = volume × std/√count."""
    count = len(values)
    mean = math.fsum(_floats(values)) / count
    var = math.fsum((v - mean) ** 2 for v in _floats(values)) / (count - 1)
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


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


def _draw_cell(spec: CellSpec, count: int, seed: int):
    """Vectorized cell sample: lengths with density l on their ranges (the
    twist integral), twists uniform in [0, l)."""
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


def mc_integrate(fn_of_fn, spec: CellSpec, count: int, seed: int, threads: int = 1) -> MCResult:
    """Monte Carlo integral of a functional over the cell.

    estimate = cell volume × sample mean, stderr = volume × std/√count.
    Non-finite functional values abort with the offending point.
    """
    if count < 2:
        raise ValueError("need at least 2 samples for an error estimate")
    points = list(FNPoint.from_draws(*_draw_cell(spec, count, seed)))
    values = ordered_map(fn_of_fn, points, threads=threads)
    for point, value in zip(points, values):
        if not math.isfinite(value):
            raise ArithmeticError(
                "functional returned %r at lengths=%s twists=%s"
                % (value, point.lengths, point.twists)
            )
    return mc_result(values, cell_volume(spec), seed)


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
    if count < 2:
        raise ValueError("need at least 2 samples for an error estimate")
    if spec.eps >= 1.0:
        raise ValueError("collar-weighted draws need eps < 1")
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
    w = np.exp((power - 2.0) * s) * s ** (1.5 - power) * z
    vals = w.prod(axis=1) * thick**spec.thick_count
    return mc_result(vals, 1.0, seed)


def sample_pants_gluing(surface: SurfaceType, L: float, count: int, seed: int):
    """Random pants gluings: cuff lengths uniform on the simplex
    {sum l_i <= L, l_i > 0}, twists uniform in [0, l_i)."""
    if L <= 0:
        raise ValueError("L must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = _rng(seed, 0x917E)
    N = surface.cuff_count
    gammas = rng.standard_exponential((count, N + 1))
    gammas = np.maximum(gammas, np.finfo(float).tiny)
    ells = L * gammas[:, :N] / gammas.sum(axis=1, keepdims=True)
    taus = ells * rng.random((count, N))
    yield from FNPoint.from_draws(ells, taus)
