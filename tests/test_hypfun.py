import math

import pytest
from hypothesis import given, strategies as st

from multicurve.hypfun import (
    BERS_BOUNDS,
    C1,
    C2,
    COMPARISON_C,
    EPSILON,
    Constants,
    FNPoint,
    collar_width,
    h_max,
    h_weight,
    r_weight,
    thin_cuffs,
)


def test_collar_width_closed_form_anchor():
    # sinh(x/2) = 1 at x = 2·arcsinh(1), so w = arcsinh(1)
    x = 2 * math.asinh(1.0)
    assert collar_width(x) == pytest.approx(0.881373587019543, abs=1e-12)
    assert x == pytest.approx(1.76275, abs=1e-5)


def test_collar_width_log_asymptotics():
    # w(x) = |log x| + log 4 + o(1), so the ratio decreases to 1 slowly:
    # 1.1003 at 1e-6 and inside [0.94, 1.06] only from about 1e-11 on
    assert collar_width(1e-6) / abs(math.log(1e-6)) == pytest.approx(
        1.100337, abs=1e-5
    )
    assert 0.94 <= collar_width(1e-12) / abs(math.log(1e-12)) <= 1.06
    ratios = [collar_width(10.0**-k) / (k * math.log(10)) for k in range(4, 14)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert abs(collar_width(1e-9) - (abs(math.log(1e-9)) + math.log(4))) < 1e-9


def test_collar_width_monotone():
    assert collar_width(1.0) > collar_width(2.0)


def test_collar_width_at_the_ends_of_its_range():
    # an infinite cuff has no collar; past x = 1420 sinh(x/2) overflows
    assert collar_width(math.inf) == 0.0
    with pytest.raises(OverflowError):
        collar_width(1500.0)


@given(st.floats(min_value=1e-8, max_value=50.0))
def test_collar_width_defining_identity(x):
    # sinh(w(x))·sinh(x/2) = 1
    assert math.sinh(collar_width(x)) * math.sinh(x / 2) == pytest.approx(
        1.0, rel=1e-9
    )


@given(st.floats(min_value=1e-8, max_value=0.01))
def test_collar_width_log_lower_bound(x):
    assert collar_width(x) >= 0.5 * abs(math.log(x))


def test_collar_width_domain():
    with pytest.raises(ValueError):
        collar_width(0.0)
    with pytest.raises(ValueError):
        collar_width(-1.0)


def test_r_weight_values():
    assert r_weight(1 / math.e) == pytest.approx(math.e, rel=1e-12)
    assert r_weight(math.e) == pytest.approx(1 / math.e, rel=1e-12)
    assert r_weight(0.1) == pytest.approx(4.342944819032518, rel=1e-12)


def test_r_weight_singularity_and_domain():
    with pytest.raises(ValueError, match="singularity"):
        r_weight(1.0)
    with pytest.raises(ValueError):
        r_weight(0.0)


def test_r_weight_divergence_at_zero_and_one():
    left = [r_weight(10.0**-k) for k in range(1, 9)]
    assert all(a < b for a, b in zip(left, left[1:]))
    assert left[-1] > 1e6
    near_one = [r_weight(1 - 2.0**-k) for k in range(2, 30)]
    assert all(a < b for a, b in zip(near_one, near_one[1:]))
    assert near_one[-1] > 1e6


def test_h_weight_anchor():
    x = 2 * math.asinh(1.0)
    assert h_weight(x) == pytest.approx(0.6436502487800063, rel=1e-12)
    assert h_weight(x) == pytest.approx(0.6437, abs=1e-4)


def test_h_max_dominates_endpoints():
    for lo, hi in [(0.1, 1.92485), (0.5, 4.0), (1.0, 8.0)]:
        m = h_max(lo, hi)
        assert m >= h_weight(lo)
        assert m >= h_weight(hi)


def test_h_increasing_on_1_4():
    assert h_weight(4.0) > h_weight(2.0)


def test_h_max_matches_dense_grid():
    lo, hi = 0.1, 2 * math.acosh(1.5)
    grid = max(
        h_weight(lo + (hi - lo) * k / 200000) for k in range(200001)
    )
    assert h_max(lo, hi) == pytest.approx(grid, rel=1e-9)
    # on this interval H is maximal at the thin end
    assert h_max(lo, hi) == pytest.approx(h_weight(lo), rel=1e-9)


def test_h_max_interior_maximum():
    # H decreases then increases; on a wide interval the max can sit at
    # either end, and any interior bump must still be found
    lo, hi = 0.9, 20.0
    grid = max(h_weight(lo + (hi - lo) * k / 100000) for k in range(100001))
    assert h_max(lo, hi) == pytest.approx(grid, rel=1e-9)


def test_h_turns_once_so_h_max_is_the_endpoint_maximum():
    # on a geometric grid over [1e-9, 60] H only falls and then only rises,
    # turning once, at its minimum near 1.7626
    xs = [1e-9 * (60 / 1e-9) ** (k / 200000) for k in range(200001)]
    hs = [h_weight(x) for x in xs]
    rising = [b > a for a, b in zip(hs, hs[1:]) if b != a]
    turns = [i for i in range(1, len(rising)) if rising[i] != rising[i - 1]]
    assert len(turns) == 1 and not rising[0]
    assert xs[hs.index(min(hs))] == pytest.approx(1.7626, abs=1e-3)
    # so no interior point of a default [epsilon, bers] beats its ends
    for bers in BERS_BOUNDS.values():
        lo, hi = EPSILON, bers
        grid = max(h_weight(lo + (hi - lo) * k / 20000) for k in range(20000))
        assert h_max(lo, hi) == max(h_weight(lo), h_weight(hi)) >= grid


def test_h_max_domain():
    with pytest.raises(ValueError):
        h_max(1.0, 1.0)
    with pytest.raises(ValueError):
        h_max(0.0, 1.0)
    with pytest.raises(ValueError):
        h_max(2.0, 1.0)


def test_thin_cuffs_basic():
    fn = FNPoint((0.05, 1.3, 2.0), (0.0, 0.0, 0.0))
    assert thin_cuffs(fn, 0.1) == {1}
    assert thin_cuffs(fn, 0.01) == set()
    # closed inequality at the edge
    assert thin_cuffs(FNPoint((0.1, 0.5), (0.0, 0.0)), 0.1) == {1}


def test_fnpoint_validation():
    with pytest.raises(ValueError):
        FNPoint((1.0, -1.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        FNPoint((1.0,), (0.0, 0.0))
    with pytest.raises(ValueError):
        FNPoint((math.inf,), (0.0,))


def test_constants_defaults():
    c = Constants()
    assert c.epsilon == EPSILON
    assert 0 < c.epsilon < 1 < c.bers_bound
    assert COMPARISON_C >= 1
    assert 0 < C1 <= C2
    assert c.bers_bound == pytest.approx(2 * math.acosh(1.5), rel=1e-12)
