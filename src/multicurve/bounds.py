"""Bounds for the unit-ball function B(X): the thin-part product F(X), the
explicit-constant upper bound, the combinatorial-ball proxy, and the uniform
counting bound.

Let k be the number of cuffs with length <= eps, N the cuff count, M the
maximum of H(x) = 1/(x·w(x)) on [eps, bers].  With C the calibrated
combinatorial-vs-hyperbolic length comparison constant:

    B(X) <= C^(2N) · 2^(g+k) · M^(N-k) / (2N)! · prod_thin R(l_i)

(2^(g+k)/(2N)! carries the exact unit-ball volume; H <= 2R on the thin part
because w(x) >= |log x|/2 there, H <= M on the thick part), and uniformly
over integral multicurves η and L >= bers/C:

    s(X, η, L) / L^(2N) <= (3g-2+n)^N · 8^N · C^(2N) · 2^k · M^(N-k) · prod_thin R(l_i)

(the box-volume bound behind it carries no factorial).  The two-sided
sandwich c1·F(X) <= B(X) <= c2·F(X) uses the calibrated hypfun.C1 and C2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hypfun import (
    C1, C2, COMPARISON_C, Constants, FNPoint, collar_width, h_max, r_weight, thin_cuffs,
)
from .thurston import comb_ball_measure
from .dtlattice import CombWeights
from .topology import SurfaceType


@dataclass(frozen=True)
class BoundReport:
    f_value: float  # F(X), product of R over thin cuffs
    lower: float  # c1 * F(X)
    comb_value: float  # combinatorial unit-ball measure at X
    upper: float  # c2 * F(X)
    explicit_upper: float  # the explicit-constant bound above
    constants: dict  # C, M, eps, k actually used

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["constants"] = dict(self.constants)
        return out


def f_value(fn: FNPoint, eps: float) -> float:
    """F(X): empty product 1 when nothing is thin."""
    out = 1.0
    for i in thin_cuffs(fn, eps):
        out *= r_weight(fn.lengths[i - 1])
    return out


def b_comb(surface: SurfaceType, fn: FNPoint) -> float:
    """Measure of the combinatorial unit ball at X: the geometric weights
    are (w(l_i), l_i)."""
    wts = CombWeights(tuple(collar_width(l) for l in fn.lengths), fn.lengths)
    return comb_ball_measure(surface, wts)


def _check_bers(fn: FNPoint, bers: float) -> None:
    for i, ell in enumerate(fn.lengths, start=1):
        if ell > bers:
            raise ValueError(
                "cuff %d has length %.6g > bers bound %.6g; pass a "
                "systole-adapted decomposition" % (i, ell, bers)
            )


def b_upper(surface: SurfaceType, fn: FNPoint, consts: Constants) -> float:
    _check_bers(fn, consts.bers_bound)
    N = surface.cuff_count
    g = surface.genus
    k = len(thin_cuffs(fn, consts.epsilon))
    M = h_max(consts.epsilon, consts.bers_bound)
    return (
        COMPARISON_C ** (2 * N)
        * 2.0 ** (g + k)
        * M ** (N - k)
        / math.factorial(2 * N)
        * f_value(fn, consts.epsilon)
    )


def count_upper(surface: SurfaceType, fn: FNPoint, L: float, consts: Constants) -> float:
    """Uniform bound for s(X, η, L)/L^(2N) over every integral multicurve η;
    valid for L >= bers/C."""
    L0 = consts.bers_bound / COMPARISON_C
    if L < L0:
        raise ValueError("bound requires L >= %.6g, got %.6g" % (L0, L))
    _check_bers(fn, consts.bers_bound)
    g, n = surface.genus, surface.punctures
    N = surface.cuff_count
    k = len(thin_cuffs(fn, consts.epsilon))
    M = h_max(consts.epsilon, consts.bers_bound)
    return (
        float(3 * g - 2 + n) ** N
        * 8.0**N
        * COMPARISON_C ** (2 * N)
        * 2.0**k
        * M ** (N - k)
        * f_value(fn, consts.epsilon)
    )


def bound_report(surface: SurfaceType, fn: FNPoint, consts: Constants) -> BoundReport:
    # before b_comb: past the bound, collar_width's sinh may overflow
    _check_bers(fn, consts.bers_bound)
    fv = f_value(fn, consts.epsilon)
    k = len(thin_cuffs(fn, consts.epsilon))
    return BoundReport(
        f_value=fv,
        lower=C1 * fv,
        comb_value=b_comb(surface, fn),
        upper=C2 * fv,
        explicit_upper=b_upper(surface, fn, consts),
        constants={
            "C": COMPARISON_C,
            "M": h_max(consts.epsilon, consts.bers_bound),
            "eps": consts.epsilon,
            "k": k,
            "c1": C1,
            "c2": C2,
        },
    )
