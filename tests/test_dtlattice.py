"""Coordinate lattice of multicurves: membership, combinatorial length, and
ball enumeration against a brute-force box scan."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from multicurve.dtlattice import (
    CombWeights,
    DTPoint,
    comb_length,
    count_ball,
    enumerate_ball,
    in_lambda,
    parity_masks,
)
from multicurve.thurston import lattice_ball_estimate
from multicurve.topology import builtin_surface


def brute_count(dec, wts, L):
    # independent scan of the integer box |m_i|w_i, |t_i|l_i <= L
    N = dec.surface.cuff_count
    ws, ls = wts.width, wts.length
    m_ranges = [range(0, int(L / w) + 1) for w in ws]
    t_ranges = [range(-int(L / l), int(L / l) + 1) for l in ls]
    count = 0
    for m in itertools.product(*m_ranges):
        for t in itertools.product(*t_ranges):
            if all(v == 0 for v in m) and all(v == 0 for v in t):
                continue
            if any(mi == 0 and ti < 0 for mi, ti in zip(m, t)):
                continue
            if sum(mi * wi + abs(ti) * li for mi, wi, ti, li in zip(m, ws, t, ls)) > L:
                continue
            if any(
                sum(mi for mi, c in zip(m, [dec.region_cuffs(j).count(i + 1) for i in range(N)]) if c % 2 == 1) % 2
                for j in range(len(dec.regions))
            ):
                continue
            count += 1
    return count


def test_point_validation():
    p = DTPoint((1, 0), (2, 3))
    assert p.m == (1, 0) and p.t == (2, 3)
    with pytest.raises(ValueError):
        DTPoint((1,), (2, 3))
    with pytest.raises(ValueError):
        DTPoint((-1,), (0,))


@pytest.mark.parametrize("name, ws, ls, L", [
    ("S11", (1.0,), (1.0,), 61.3),
    ("S04", (1.0,), (1.0,), 60.7),
    ("S12", (0.75, 1.5), (1.25, 0.5), 10.3),
    ("S20", (0.75, 1.5, 2.5), (1.25, 0.5, 1.0), 7.2),
    ("S20", (0.3, 0.7, 2.0), (1.5, 1.3, 2.0), 7.0),
])
def test_enumerated_points_are_the_checked_construction(name, ws, ls, L):
    # enumerate_ball builds its points without the constructor's checks;
    # each must equal DTPoint(m, t), field types included
    _, dec = builtin_surface(name)
    pts = list(enumerate_ball(dec, CombWeights(ws, ls), L))
    assert len(pts) > 900
    for p in pts:
        assert type(p) is DTPoint and type(p.m) is tuple and type(p.t) is tuple
        assert {type(v) for v in p.m + p.t} == {int}
        checked = DTPoint(p.m, p.t)
        assert repr(p) == repr(checked) and p == checked and hash(p) == hash(checked)
        assert vars(p) == vars(checked)


def test_weights_validation():
    with pytest.raises(ValueError):
        CombWeights((1.0,), (1.0, 2.0))
    with pytest.raises(ValueError):
        CombWeights((0.0,), (1.0,))
    with pytest.raises(ValueError):
        CombWeights((1.0,), (math.inf,))


def test_parity_masks_builtins():
    _, dec = builtin_surface("S11")
    assert parity_masks(dec) == (0,)  # cuff hits its region twice
    _, dec = builtin_surface("S04")
    assert parity_masks(dec) == (1, 1)
    _, dec = builtin_surface("S20")
    # every region sees its cuffs once
    masks = parity_masks(dec)
    assert len(masks) == 2
    assert all(bin(mask).count("1") == 3 for mask in masks)


def test_in_lambda_examples():
    _, s11 = builtin_surface("S11")
    assert in_lambda(DTPoint((1,), (5,)), s11)
    assert in_lambda(DTPoint((0,), (1,)), s11)
    assert not in_lambda(DTPoint((0,), (-1,)), s11)

    _, s04 = builtin_surface("S04")
    assert in_lambda(DTPoint((2,), (1,)), s04)
    assert not in_lambda(DTPoint((1,), (0,)), s04)  # odd strand count
    assert not in_lambda(DTPoint((3,), (-2,)), s04)
    with pytest.raises(ValueError):
        in_lambda(DTPoint((1, 0), (0, 0)), s04)


def test_comb_length_values():
    wts = CombWeights((1.0, 1.0), (1.0, 1.0))
    assert comb_length(DTPoint((1, 2), (1, -1)), wts) == 5
    w = 0.881373587019543  # collar width of the cuff below
    ell = 2 * w  # 2*asinh(1)
    geo = CombWeights((w,), (ell,))
    assert comb_length(DTPoint((1,), (1,)), geo) == pytest.approx(
        3 * 0.881373587019543, rel=1e-12
    )
    with pytest.raises(ValueError):
        comb_length(DTPoint((1,), (0,)), wts)


def test_enumerate_ball_s11_frozen():
    _, dec = builtin_surface("S11")
    wts = CombWeights((1.0,), (1.0,))
    pts = [(p.m[0], p.t[0]) for p in enumerate_ball(dec, wts, 2.0)]
    assert pts == [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 0)]
    assert count_ball(dec, wts, 2.0) == 6


def test_enumerate_ball_s04_frozen():
    _, dec = builtin_surface("S04")
    wts = CombWeights((1.0,), (1.0,))
    pts = [(p.m[0], p.t[0]) for p in enumerate_ball(dec, wts, 2.0)]
    # odd m is killed by the parity constraint; twists survive
    assert pts == [(0, 1), (0, 2), (2, 0)]
    assert count_ball(dec, wts, 2.0) == 3


def test_counts_match_enumeration_and_brute_force():
    cases = [
        ("S11", (0.75,), (1.25,), 8.0, 70),
        ("S11", (1.0,), (1.0,), 7.999, 56),
        ("S04", (0.75,), (1.25,), 8.0, 35),
        ("S04", (1.0,), (1.0,), 7.999, 28),
        ("S12", (0.75, 1.5), (1.25, 0.5), 6.0, 250),
        ("S20", (0.75, 1.5, 2.5), (1.25, 0.5, 1.0), 6.0, 491),
        ("S11", (3.0,), (3.0,), 2.0, 0),
    ]
    for name, ws, ls, L, expected in cases:
        _, dec = builtin_surface(name)
        wts = CombWeights(ws, ls)
        got = count_ball(dec, wts, L)
        assert got == expected, (name, L, got)
        assert sum(1 for _ in enumerate_ball(dec, wts, L)) == expected
        assert brute_count(dec, wts, L) == expected


def test_enumerated_points_lie_in_ball_and_semigroup():
    _, dec = builtin_surface("S12")
    wts = CombWeights((0.75, 1.5), (1.25, 0.5))
    pts = list(enumerate_ball(dec, wts, 6.0))
    assert len(pts) == len(set(pts))
    for p in pts:
        assert comb_length(p, wts) <= 6.0 + 1e-12
        assert in_lambda(p, dec)


def test_empty_and_monotone():
    _, dec = builtin_surface("S11")
    assert count_ball(dec, CombWeights((3.0,), (3.0,)), 2.0) == 0
    assert count_ball(dec, CombWeights((1.0,), (1.0,)), 0.0) == 0
    wts = CombWeights((0.9,), (1.4,))
    counts = [count_ball(dec, wts, L) for L in (2.0, 4.0, 8.0, 16.0)]
    assert counts == sorted(counts)
    assert counts[0] > 0


def test_non_finite_radius_raises():
    # a NaN radius used to count -1 points and an infinite one to leak
    # OverflowError; radii <= 0 keep their empty ball
    _, dec = builtin_surface("S12")
    wts = CombWeights((0.75, 1.5), (1.25, 0.5))
    for L in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            count_ball(dec, wts, L)
        with pytest.raises(ValueError, match="finite"):
            list(enumerate_ball(dec, wts, L))
        with pytest.raises(ValueError, match="finite"):
            lattice_ball_estimate(dec, wts, L)
    for L in (0.0, -1.0):
        assert count_ball(dec, wts, L) == 0
        assert list(enumerate_ball(dec, wts, L)) == []


def test_count_growth_rate_is_degree_2n():
    # N = 1, so counts grow like L^2: quadrupling under L -> 2L
    _, dec = builtin_surface("S11")
    wts = CombWeights((1.0,), (1.0,))
    ratio = count_ball(dec, wts, 1000.0) / count_ball(dec, wts, 500.0)
    assert ratio == pytest.approx(3.996, abs=1e-3)
    assert abs(ratio - 4.0) < 0.4


def test_twist_reflection_symmetry():
    # reflecting every positive-m point in t is a bijection of the ball
    _, dec = builtin_surface("S12")
    wts = CombWeights((0.75, 1.5), (1.25, 0.5))
    pts = list(enumerate_ball(dec, wts, 8.0))
    flipped = []
    for p in pts:
        if all(mi > 0 for mi in p.m):
            flipped.append(DTPoint(p.m, tuple(-v for v in p.t)))
    assert set(flipped) <= set(pts)


def test_density_of_semigroup_in_boxes():
    # fraction of integer points passing the parity constraints tends to
    # 2^-(#independent parity conditions): 1/2 for S04 and S20
    for name in ("S04", "S20"):
        _, dec = builtin_surface(name)
        N = dec.surface.cuff_count
        masks = parity_masks(dec)
        total = 0
        member = 0
        for m in itertools.product(range(8), repeat=N):
            total += 1
            if all(
                sum(m[b] for b in range(N) if mask >> b & 1) % 2 == 0
                for mask in masks
            ):
                member += 1
        assert member / total == pytest.approx(0.5, abs=1e-12), name


# --- one membership rule for enumeration and counting -------------------

def _ball_points(name, ws, ls, L):
    _, dec = builtin_surface(name)
    wts = CombWeights(ws, ls)
    return list(enumerate_ball(dec, wts, L)), count_ball(dec, wts, L)


@pytest.mark.parametrize(
    "name, ws, ls, L, expected",
    [
        # points exactly on the boundary, where floating-point sums in
        # different orders fall on different sides of L
        ("S12", (0.1, 0.1), (0.1, 0.1), 0.6, 121),
        ("S20", (0.3, 0.7, 2.0), (1.5, 1.3, 2.0), 7.0, 1080),
        # t_1 = floor(b / l_1) leaves b - t_1 l_1 < 0 by rounding; that leaf
        # holds no point (counting it as -1 gave 184)
        ("S12", (1.0, 0.4), (0.1, 0.75), 1.0 + 0.75 + 0.75, 185),
    ],
)
def test_boundary_ties_enumerate_what_is_counted(name, ws, ls, L, expected):
    pts, count = _ball_points(name, ws, ls, L)
    assert count == expected
    assert len(pts) == expected
    assert len(set(pts)) == expected


def _tie_prone_weight():
    # multiples of 1/10 and of 1/4: most are inexact in binary
    return st.one_of(
        st.integers(1, 8).map(lambda k: k / 10), st.integers(1, 8).map(lambda k: k / 4)
    )


@st.composite
def tie_prone_balls(draw):
    """(surface, widths, lengths, radius) with the radius a sum of weights,
    added left to right as the walk adds costs, so that lattice points sit
    on the boundary; balls of more than about 2000 points are skipped."""
    name = draw(st.sampled_from(("S11", "S04", "S12", "S20")))
    N = builtin_surface(name)[0].cuff_count
    ws = tuple(draw(_tie_prone_weight()) for _ in range(N))
    ls = tuple(draw(_tie_prone_weight()) for _ in range(N))
    terms = draw(st.lists(st.sampled_from(ws + ls), min_size=1, max_size=4))
    L = 0.0
    for v in terms:
        L += v
    # volume of the real ball, 2^N L^2N / ((2N)! prod w_i l_i), sizes it
    volume = 2**N * L ** (2 * N) / math.factorial(2 * N) / math.prod(ws + ls)
    assume(volume <= 2000)
    return name, ws, ls, L


@settings(max_examples=150, deadline=None)
@given(tie_prone_balls())
def test_enumeration_has_count_ball_points(ball):
    pts, count = _ball_points(*ball)
    assert len(pts) == count
    keys = [(p.m, p.t) for p in pts]
    assert keys == sorted(set(keys))  # (m, t) lexicographic, no repeats


class _NearTie(Exception):
    pass


def exact_ball(dec, wts, L, tol=Fraction(1, 10**9)):
    """Nonzero semigroup points of cost <= L, with the weights and L read
    as the rationals their floats are; raises _NearTie if a point's exact
    cost lies within tol of L."""
    N = dec.surface.cuff_count
    ws = [Fraction(v) for v in wts.width]
    ls = [Fraction(v) for v in wts.length]
    R = Fraction(L)
    out = set()

    def rec(i, cost, m, t):
        if i == N:
            if abs(cost - R) <= tol:
                raise _NearTie
            p = DTPoint(m, t)
            if cost <= R and any(m + t) and in_lambda(p, dec):
                out.add(p)
            return
        mi = 0
        while cost + mi * ws[i] <= R + tol:
            c = cost + mi * ws[i]
            k = math.floor((R + tol - c) / ls[i])
            for ti in range(0 if mi == 0 else -k, k + 1):
                rec(i + 1, c + abs(ti) * ls[i], m + (mi,), t + (ti,))
            mi += 1

    rec(0, Fraction(0), (), ())
    return out


@settings(max_examples=60, deadline=None)
@given(tie_prone_balls(), st.sampled_from((-0.031, -0.0007, 0.0013, 0.047)))
def test_ball_matches_exact_rationals_away_from_ties(ball, offset):
    name, ws, ls, L = ball
    L += offset
    _, dec = builtin_surface(name)
    try:
        exact = exact_ball(dec, CombWeights(ws, ls), L)
    except _NearTie:
        assume(False)
    pts, count = _ball_points(name, ws, ls, L)
    assert set(pts) == exact
    assert len(pts) == count == len(exact)
