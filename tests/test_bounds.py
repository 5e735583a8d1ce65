"""Thin-part products and the explicit bounds on the unit-ball function."""

import math
import random

import pytest

from multicurve.bounds import (
    BoundReport,
    b_comb,
    b_upper,
    bound_report,
    count_upper,
    f_value,
)
from multicurve.hypfun import C1, C2, COMPARISON_C, Constants, FNPoint, h_max, r_weight
from multicurve.topology import builtin_surface


CONSTS = Constants()


def test_f_value_examples():
    # empty product when nothing is thin
    assert f_value(FNPoint((1.5,), (0.0,)), 0.1) == 1.0
    # one thin cuff: R(0.1) = 1/(0.1 * log 10)
    assert f_value(FNPoint((0.1, 1.5), (0.0, 0.0)), 0.1) == pytest.approx(
        4.342944819032518, rel=1e-15
    )
    # two thin cuffs multiply
    assert f_value(FNPoint((0.1, 0.05), (0.0, 0.0)), 0.1) == pytest.approx(
        28.994211915207362, rel=1e-14
    )
    assert f_value(FNPoint((0.1,), (0.0,)), 0.1) == pytest.approx(
        r_weight(0.1), rel=1e-15
    )


def test_f_value_twist_invariance():
    a = f_value(FNPoint((0.05, 1.0), (0.0, 0.0)), 0.1)
    b = f_value(FNPoint((0.05, 1.0), (3.5, -7.0)), 0.1)
    assert a == b


def test_f_value_grows_as_cuffs_shrink():
    vals = [f_value(FNPoint((10.0**-k,), (0.0,)), 0.1) for k in range(1, 8)]
    assert vals == sorted(vals)
    assert vals[-1] > vals[0]


def test_b_comb_geometric_point():
    surf, _ = builtin_surface("S11")
    ell = 2.0 * math.asinh(1.0)
    assert b_comb(surf, FNPoint((ell,), (0.3,))) == pytest.approx(
        0.6436502487800063, rel=1e-13
    )
    # pinching a cuff inflates the ball measure
    assert b_comb(surf, FNPoint((ell / 2,), (0.0,))) > b_comb(
        surf, FNPoint((ell,), (0.0,))
    )


def test_b_upper_formula_substitution():
    surf, _ = builtin_surface("S11")
    consts = CONSTS
    M = h_max(consts.epsilon, consts.bers_bound)
    # thick point, k = 0: C^2 * 2^g * M / 2!
    fn = FNPoint((1.5,), (0.0,))
    expected = COMPARISON_C**2 * 2.0 * M / 2.0
    assert b_upper(surf, fn, consts) == pytest.approx(expected, rel=1e-14)
    # thin point, k = 1: C^2 * 2^(g+1) / 2! * R(l)
    thin = FNPoint((0.05,), (0.0,))
    expected = COMPARISON_C**2 * 4.0 / 2.0 * r_weight(0.05)
    assert b_upper(surf, thin, consts) == pytest.approx(expected, rel=1e-14)


def test_b_upper_increases_when_pinching():
    surf, _ = builtin_surface("S12")
    consts = CONSTS
    fn = FNPoint((0.05, 1.0), (0.0, 0.0))
    halved = FNPoint((0.025, 1.0), (0.0, 0.0))
    assert b_upper(surf, halved, consts) > b_upper(surf, fn, consts)
    # twists are irrelevant
    twisted = FNPoint((0.05, 1.0), (2.0, -11.0))
    assert b_upper(surf, twisted, consts) == b_upper(surf, fn, consts)


def test_b_upper_rejects_long_cuffs():
    surf, _ = builtin_surface("S12")
    fn = FNPoint((0.5, 3.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="cuff 2 has length 3 >"):
        b_upper(surf, fn, CONSTS)


def test_explicit_upper_dominates_comb_value():
    # H <= 2R on the thin part, H <= M on the thick part makes the explicit
    # bound a pointwise majorant of the combinatorial ball measure
    rng = random.Random(20260814)
    for name in ("S11", "S04", "S12", "S20"):
        surf, _ = builtin_surface(name)
        N = surf.cuff_count
        for _ in range(40):
            lengths = tuple(
                10 ** rng.uniform(-3, 0) * CONSTS.bers_bound for _ in range(N)
            )
            fn = FNPoint(lengths, (0.0,) * N)
            report = bound_report(surf, fn, CONSTS)
            assert report.explicit_upper >= report.comb_value, (name, lengths)


def test_count_upper_is_l_independent():
    surf, _ = builtin_surface("S11")
    fn = FNPoint((0.1,), (0.0,))
    a = count_upper(surf, fn, 10.0, CONSTS)
    b = count_upper(surf, fn, 20.0, CONSTS)
    assert a == b
    assert a > 0


def test_count_upper_requires_large_l():
    surf, _ = builtin_surface("S11")
    fn = FNPoint((0.1,), (0.0,))
    L0 = CONSTS.bers_bound / COMPARISON_C
    with pytest.raises(ValueError, match="bound requires L >="):
        count_upper(surf, fn, 0.9 * L0, CONSTS)
    assert count_upper(surf, fn, L0, CONSTS) > 0


def test_count_upper_formula_substitution():
    surf, _ = builtin_surface("S04")
    consts = CONSTS
    M = h_max(consts.epsilon, consts.bers_bound)
    fn = FNPoint((0.05,), (0.0,))
    # (3g-2+n)^N 8^N C^2N 2^k M^(N-k) F with g=0, n=4, N=1, k=1
    expected = 2.0 * 8.0 * COMPARISON_C**2 * 2.0 * r_weight(0.05)
    assert count_upper(surf, fn, 10.0, consts) == pytest.approx(expected, rel=1e-14)


def test_count_upper_rejects_long_cuffs():
    surf, _ = builtin_surface("S11")
    with pytest.raises(ValueError, match="cuff 1"):
        count_upper(surf, FNPoint((5.0,), (0.0,)), 10.0, CONSTS)


def test_bound_report_shape():
    surf, _ = builtin_surface("S11")
    fn = FNPoint((0.08,), (0.25,))
    report = bound_report(surf, fn, CONSTS)
    assert isinstance(report, BoundReport)
    assert report.lower == C1 * report.f_value
    assert report.upper == C2 * report.f_value
    assert report.lower <= report.upper
    assert report.constants["k"] == 1
    assert report.constants["C"] == COMPARISON_C
    d = report.as_dict()
    assert set(d) == {
        "f_value",
        "lower",
        "comb_value",
        "upper",
        "explicit_upper",
        "constants",
    }
    assert d["constants"] is not report.constants  # defensive copy


def test_comb_value_to_f_value_ratio_is_tame():
    # B_comb/F stays within fixed bounds as one cuff pinches: both scale
    # like 1/(l |log l|) in the pinching cuff
    surf, _ = builtin_surface("S11")
    ratios = []
    for k in range(2, 9):
        ell = 10.0**-k
        fn = FNPoint((ell,), (0.0,))
        ratios.append(b_comb(surf, fn) / f_value(fn, CONSTS.epsilon))
    # the ratio is |log l| / w(l), climbing to 1 as w ~ |log l| + log 4
    assert ratios == sorted(ratios)
    assert 0.7 < ratios[0] and ratios[-1] < 1.0
    assert ratios[-1] == pytest.approx(0.930009789290598, rel=1e-12)
