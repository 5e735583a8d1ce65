"""Once-punctured-torus backend: trace coordinates, length spectra, counts,
and the fundamental-domain Monte Carlo."""

import gc
import math
import pickle
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from multicurve import _kernels
from multicurve.runpar import ordered_map
from multicurve.torus import (
    BERS_11,
    LENGTH_TIE_TOL,
    FrickeTriple,
    Slope,
    TorusPoint,
    _systole_weight,
    b_hat,
    count_b,
    count_s,
    enumerate_short_slopes,
    estimate_B,
    fn_to_triple,
    mc_moduli,
    sample_bers_box,
    slope_length,
    slope_trace,
    systole_slope,
)

SEED = 20260814
SYM = TorusPoint(2 * math.acosh(1.5), -math.acosh(1.5))  # traces (3, 3, 3)


def brute_slopes(X, L, depth):
    # independent enumeration: two Stern-Brocot trees with mediant slopes
    # and the triangle trace recursion child = t(a)·t(c) - t(b); the slope
    # at infinity is (1, 0) on the positive side, (-1, 0) on the negative
    tr = fn_to_triple(X)
    x, y, z = tr.x, tr.y, tr.z
    cap = 2.0 * math.cosh(L / 2.0)
    found = {}

    def visit(p, q, t):
        if t <= cap + 1e-12:
            found[(p, q)] = 2.0 * math.acosh(max(t, 2.0) / 2.0)

    def rec(a, ta, b, tb, c, tc, d):
        visit(c[0], c[1], tc)
        if d == 0:
            return
        rec(a, ta, c, tc, (a[0] + c[0], a[1] + c[1]), ta * tc - tb, d - 1)
        rec(b, tb, c, tc, (b[0] + c[0], b[1] + c[1]), tb * tc - ta, d - 1)

    visit(0, 1, x)
    visit(1, 0, y)
    rec((0, 1), x, (1, 0), y, (1, 1), z, depth)
    rec((-1, 0), y, (0, 1), x, (-1, 1), x * y - z, depth)
    return found


def test_point_and_slope_validation():
    with pytest.raises(ValueError):
        TorusPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        TorusPoint(math.inf, 0.0)
    with pytest.raises(ValueError):
        TorusPoint(1.0, math.nan)
    TorusPoint(1.0, -3.0)  # negative twists are fine
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(1, -1)
    with pytest.raises(ValueError):
        Slope(-1, 0)  # infinity is stored as 1/0
    assert str(Slope(-1, 2)) == "-1/2"
    assert str(Slope(1, 0)) == "1/0"


def test_slope_is_a_checked_named_tuple():
    # the benchmark digests hash the repr of whole spectra
    assert repr(Slope(1, 2)) == "Slope(p=1, q=2)"
    assert repr(Slope(-3, 5)) == "Slope(p=-3, q=5)"
    assert str(Slope(-3, 5)) == "-3/5"
    for (p, q), message in (((2, 4), "not reduced"), ((1, -1), "reserved 1/0"), ((2, 0), "reserved 1/0")):
        with pytest.raises(ValueError, match=message):
            Slope(p, q)
    s = Slope(q=7, p=-2)
    assert (s.p, s.q) == (-2, 7) and s == Slope(-2, 7)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(s, protocol))
        assert back == s and type(back) is Slope
    # the named tuple's own constructors go through the checks too
    assert Slope._make((1, 0)) == Slope(1, 0)
    with pytest.raises(ValueError, match="not reduced"):
        Slope._make((2, 4))
    with pytest.raises(ValueError, match="not reduced"):
        s._replace(q=8)


def _assert_checked(slope):
    p, q = slope
    assert type(slope) is Slope
    assert q > 0 or (p, q) == (1, 0), slope
    assert math.gcd(p, q) == 1, slope


@settings(max_examples=40, deadline=None)
@given(
    ell=st.floats(1e-3, BERS_11),
    v=st.floats(0.0, 1.0, exclude_max=True),
    L=st.floats(0.05, 14.0),
)
def test_listed_slopes_pass_the_checks_in_the_bers_box(ell, v, L):
    for slope, _ in enumerate_short_slopes(TorusPoint(ell, ell * v), L):
        _assert_checked(slope)


@settings(max_examples=25, deadline=None)
@given(
    log_ell=st.floats(-3.0, -1.0),
    twist=st.floats(-2.0, 2.0),
    L=st.floats(0.05, 12.0),
)
def test_listed_slopes_pass_the_checks_at_thin_points(log_ell, twist, L):
    ell = 10.0**log_ell
    for slope, _ in enumerate_short_slopes(TorusPoint(ell, twist * ell), L):
        _assert_checked(slope)


def _checked_spectrum(X, L):
    # the construction enumerate_short_slopes made before it built its
    # slopes unchecked: one checked Slope per listed slope
    tr = fn_to_triple(X)
    return [(Slope(p, q), 2.0 * math.acosh(t / 2.0))
            for t, q, p in _kernels.slopes_upto(tr.x, tr.y, tr.z, L)]


def _assert_spectrum_is_the_checked_one(X, L):
    got = enumerate_short_slopes(X, L)
    want = _checked_spectrum(X, L)
    assert repr(got) == repr(want), (X, L)
    assert [tuple(map(type, item)) for item in got] == [(Slope, float)] * len(want), (X, L)
    assert all(type(s.p) is int and type(s.q) is int for s, _ in got), (X, L)


def test_spectrum_is_the_checked_construction_in_the_bers_box():
    rng = random.Random(SEED + 21)
    for _ in range(30):
        ell = rng.uniform(1e-2, BERS_11)
        X = TorusPoint(ell, ell * rng.uniform(-1.0, 2.0))
        _assert_spectrum_is_the_checked_one(X, rng.uniform(1.0, 14.0))
    _assert_spectrum_is_the_checked_one(SYM, 9.0)
    _assert_spectrum_is_the_checked_one(TorusPoint(1.3, 0.475), BERS_11 + LENGTH_TIE_TOL)


def test_spectrum_is_the_checked_construction_at_thin_points():
    rng = random.Random(SEED + 22)
    for _ in range(12):
        ell = 10.0 ** rng.uniform(-3.0, -1.0)
        X = TorusPoint(ell, ell * rng.uniform(-2.0, 2.0))
        _assert_spectrum_is_the_checked_one(X, rng.uniform(5.0, 30.0))
    # the point-queries benchmark's deepest kind of spectrum
    _assert_spectrum_is_the_checked_one(TorusPoint(1e-3, 3.7e-4), 30.0)


def test_spectrum_restores_the_collector():
    was = gc.isenabled()
    try:
        gc.enable()
        enumerate_short_slopes(TorusPoint(1.3, 0.475), 8.0)
        assert gc.isenabled()
        gc.disable()
        enumerate_short_slopes(TorusPoint(1.3, 0.475), 8.0)
        assert not gc.isenabled()
        # the kernel raises inside the pause: an infinite radius
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(ArithmeticError):
                enumerate_short_slopes(TorusPoint(1.0, 0.3), math.inf)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_spectrum_pauses_the_collector_from_the_main_thread_only(monkeypatch):
    paused = []
    monkeypatch.setattr(gc, "disable", lambda: paused.append(threading.get_ident()))
    monkeypatch.setattr(gc, "isenabled", lambda: True)
    monkeypatch.setattr(gc, "enable", lambda: None)
    X = TorusPoint(1.3, 0.475)
    worker = threading.Thread(target=enumerate_short_slopes, args=(X, 8.0))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and paused == []
    enumerate_short_slopes(X, 8.0)
    assert paused == [threading.get_ident()]


def test_spectrum_restores_the_collector_under_a_thread_pool():
    # a pause saved and restored by every call, from any thread, left the
    # collector off after about a third of these rounds: one call reads
    # "off" inside another's pause, the other turns it back on, and the
    # first then turns it off for good.  More threads than cores, short
    # spectra and a short switch interval make calls interleave.
    points = [TorusPoint(1.0 + 0.01 * (k % 50), 0.003 * k) for k in range(4000)]
    serial = [enumerate_short_slopes(X, 2.0) for X in points]
    was, interval = gc.isenabled(), sys.getswitchinterval()
    try:
        gc.enable()
        sys.setswitchinterval(1e-5)
        for _ in range(30):
            got = ordered_map(lambda X: enumerate_short_slopes(X, 2.0), points, threads=16)
            assert gc.isenabled()
            assert got == serial
    finally:
        sys.setswitchinterval(interval)
        (gc.enable if was else gc.disable)()


def test_fn_to_triple_checks_its_traces_across_the_moduli_space():
    # fn_to_triple is the one check on the traces: over a grid from
    # ell = 1e-8 to 710 and tau out to -1450 and 1449, each point raises
    # ArithmeticError or gives traces in (2, inf) satisfying the cusp
    # identity wherever both of its sides are finite
    ells = [10.0 ** (e / 4) for e in range(-32, 12)] + [700.0, 710.0]
    taus = [float(t) for t in range(-1450, 1450, 10)] + [-1420.5, -1419.5, 1419.5, 1420.5]
    raised = kept = 0
    for ell in ells:
        for tau in taus:
            try:
                tr = fn_to_triple(TorusPoint(ell, tau))
            except ArithmeticError:
                raised += 1
                continue
            kept += 1
            assert type(tr) is FrickeTriple
            assert all(2.0 < t < math.inf for t in tr), (ell, tau, tr)
            lhs, rhs = tr.x * tr.x + tr.y * tr.y + tr.z * tr.z, tr.x * tr.y * tr.z
            if math.isfinite(lhs) and math.isfinite(rhs):
                assert lhs == pytest.approx(rhs, rel=1e-12), (ell, tau)
    assert raised and kept


def test_fn_to_triple_frozen():
    tr = fn_to_triple(TorusPoint(1.3, 0.475))
    assert tr.x == pytest.approx(2.4375866057749125, rel=1e-15)
    assert tr.y == pytest.approx(3.597656007462133, rel=1e-15)
    assert tr.z == pytest.approx(4.969183752229627, rel=1e-15)
    assert tr.x == 2.0 * math.cosh(1.3 / 2.0)


def test_symmetric_point():
    tr = fn_to_triple(SYM)
    assert tr.x == pytest.approx(3.0, rel=1e-15)
    assert tr.y == pytest.approx(3.0, rel=1e-14)
    assert tr.z == pytest.approx(3.0, rel=1e-14)


def test_cusp_identity_on_random_points():
    rng = random.Random(SEED)
    for _ in range(200):
        ell = rng.uniform(0.05, 6.0)
        X = TorusPoint(ell, rng.uniform(-2 * ell, 2 * ell))
        tr = fn_to_triple(X)
        lhs = tr.x**2 + tr.y**2 + tr.z**2
        assert lhs == pytest.approx(tr.x * tr.y * tr.z, rel=1e-12)


def test_trace_degeneration_raises():
    with pytest.raises(ArithmeticError, match="overflow"):
        fn_to_triple(TorusPoint(1e6, 0.0))
    with pytest.raises(ArithmeticError, match="degenerated"):
        fn_to_triple(TorusPoint(800.0, 0.0))


def test_full_twist_is_a_tree_move():
    # tau -> tau + ell maps (x, y, z) to (x, z, xz - y)
    X = TorusPoint(1.3, 0.475)
    tr = fn_to_triple(X)
    tw = fn_to_triple(TorusPoint(1.3, 0.475 + 1.3))
    assert tw.x == pytest.approx(tr.x, rel=1e-14)
    assert tw.y == pytest.approx(tr.z, rel=1e-14)
    assert tw.z == pytest.approx(tr.x * tr.z - tr.y, rel=1e-14)


def test_twist_periodicity_of_spectrum():
    # the length spectrum is invariant under a full twist
    a = sorted(l for _, l in enumerate_short_slopes(TorusPoint(1.3, 0.475), 8.0))
    b = sorted(
        l for _, l in enumerate_short_slopes(TorusPoint(1.3, 0.475 + 1.3), 8.0)
    )
    assert len(a) == len(b)
    for la, lb in zip(a, b):
        assert la == pytest.approx(lb, abs=1e-7)


def test_slope_trace_recursion():
    X = TorusPoint(1.3, 0.475)
    t_01 = slope_trace(X, Slope(0, 1))
    t_10 = slope_trace(X, Slope(1, 0))
    t_11 = slope_trace(X, Slope(1, 1))
    t_21 = slope_trace(X, Slope(2, 1))
    assert t_21 == pytest.approx(t_11 * t_10 - t_01, rel=1e-13)


def test_deep_slope_trace_overflow_raises():
    # the recursion overflows to inf and then NaN along the Fibonacci slopes
    X = TorusPoint(1.3, 0.475)
    with pytest.raises(ArithmeticError, match="6765/10946"):
        slope_trace(X, Slope(6765, 10946))
    with pytest.raises(ArithmeticError, match="overflows"):
        slope_length(X, Slope(6765, 10946))


def test_slope_trace_at_or_below_two_raises():
    # far out, xy - z cancels: the trace of -1/1 reads 0.0 at (40, 40) and
    # 2.0 at (36, 36), where it must exceed 2
    for X in (TorusPoint(40.0, 40.0), TorusPoint(36.0, 36.0)):
        with pytest.raises(ArithmeticError, match="-1/1"):
            slope_trace(X, Slope(-1, 1))
        with pytest.raises(ArithmeticError, match="at most 2"):
            slope_length(X, Slope(-1, 1))


def test_slope_lengths_at_symmetric_point():
    # three slopes realize the systole 2·acosh(3/2)
    sys_len = 2 * math.acosh(1.5)
    for s in (Slope(0, 1), Slope(1, 0), Slope(1, 1)):
        assert slope_length(SYM, s) == pytest.approx(sys_len, rel=1e-12)
    assert slope_trace(SYM, Slope(2, 1)) == pytest.approx(6.0, rel=1e-13)
    assert slope_length(SYM, Slope(2, 1)) == pytest.approx(
        2 * math.acosh(3.0), rel=1e-13
    )
    assert slope_length(SYM, Slope(0, 1)) == pytest.approx(SYM.ell, rel=1e-13)


def test_enumerate_short_slopes_sorted_and_thresholds():
    got = enumerate_short_slopes(SYM, 1.93)
    assert len(got) == 3
    assert [s for s, _ in got] == sorted(
        (s for s, _ in got), key=lambda s: (s.q, s.p)
    ) or all(
        got[i][1] <= got[i + 1][1] + 1e-15 for i in range(len(got) - 1)
    )
    assert enumerate_short_slopes(SYM, 1.9) == []
    assert enumerate_short_slopes(SYM, 0.0) == []
    lengths = [l for _, l in enumerate_short_slopes(SYM, 9.0)]
    assert lengths == sorted(lengths)


def test_spectrum_frozen_at_generic_point():
    got = enumerate_short_slopes(TorusPoint(1.3, 0.475), 4.0)
    expect = [
        ((0, 1), 1.3),
        ((1, 0), 2.384254578),
        ((-1, 1), 2.514648106),
        ((1, 1), 3.120099558),
        ((-1, 2), 3.403607067),
    ]
    assert [(s.p, s.q) for s, _ in got] == [pq for pq, _ in expect]
    for (_, l), (_, le) in zip(got, expect):
        assert l == pytest.approx(le, abs=1e-8)


def test_spectrum_shells_at_symmetric_point():
    got = enumerate_short_slopes(SYM, 9.0)
    assert len(got) == 24
    shells = {}
    for _, l in got:
        shells[round(l, 6)] = shells.get(round(l, 6), 0) + 1
    assert shells == {
        1.924847: 3,
        3.525494: 3,
        5.407152: 6,
        7.325807: 6,
        8.931552: 6,
    }


def test_enumeration_matches_brute_force():
    # depth 14 is stable (checked against 16 below) on this length scale
    rng = random.Random(SEED)
    for _ in range(10):
        ell = rng.uniform(0.8, 1.9)
        X = TorusPoint(ell, rng.uniform(0.0, ell))
        brute = brute_slopes(X, 6.0, 14)
        got = {(s.p, s.q): l for s, l in enumerate_short_slopes(X, 6.0)}
        assert set(got) == set(brute), (X, set(got) ^ set(brute))
        for key in got:
            assert got[key] == pytest.approx(brute[key], abs=1e-9)
    deeper = brute_slopes(SYM, 6.0, 16)
    assert set(brute_slopes(SYM, 6.0, 14)) == set(deeper)


def test_count_s_and_scaling():
    assert count_s(SYM, 1, 9.0) == 24
    # k-fold covers: count_s(k, L) counts slopes of length <= L/k
    assert count_s(SYM, 2, 18.0) == 24
    assert count_s(SYM, 3, 9.0) == count_s(SYM, 1, 3.0)
    assert count_s(SYM, 1, 0.0) == 0
    with pytest.raises(ValueError):
        count_s(SYM, 0, 9.0)


def test_count_b_frozen_and_dominates():
    assert count_b(SYM, 9.0) == 36
    assert count_b(SYM, 1.93) == 3
    assert count_b(SYM, 0.0) == 0
    for L in (2.0, 5.0, 9.0):
        assert count_b(SYM, L) >= count_s(SYM, 1, L)
    # multiples decompose: count_b = sum_k count_s(k, L)
    total = sum(count_s(SYM, k, 9.0) for k in range(1, 6))
    assert total == 36


def _sum_count_s(X, L):
    # sum over k of count_s(X, k, L): count_s does not grow with k, so the
    # sum ends at its first zero
    total, k = 0, 1
    while n := count_s(X, k, L):
        total, k = total + n, k + 1
    return total


def test_count_b_is_the_sum_of_count_s_at_round_ties():
    # with L/ell an integer the base curve's last multiple has length L:
    # count_b counts it exactly where count_s(X, L/ell, L) does, unlike a
    # floor of L over the float length (241 against 242 at (0.5, 0, 20))
    pairs = [(ell, float(L)) for ell in (0.125, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
             for L in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 30, 40) if (L / ell).is_integer()]
    assert len(pairs) == 73
    for ell, L in pairs:
        X = TorusPoint(ell, 0.0)
        assert count_b(X, L) == _sum_count_s(X, L), (ell, L)
    assert count_b(TorusPoint(0.5, 0.0), 20.0) == 242


def _tie_radii(X, ks):
    # k times the float length of each root slope: there the slope's k-th
    # multiple sits on the threshold L/k
    tr = fn_to_triple(X)
    return [k * 2.0 * math.acosh(t / 2.0) for t in (tr.x, tr.y, tr.z) for k in ks]


def test_count_b_is_the_sum_of_count_s_in_the_bers_box():
    rng = random.Random(23)
    for _ in range(40):
        ell = rng.uniform(0.1, 1.93)
        X = TorusPoint(ell, rng.uniform(-ell / 2, ell / 2))
        for L in [rng.uniform(0.5, 40.0) for _ in range(3)] + _tie_radii(X, (1, 2, 3, 5)):
            assert count_b(X, L) == _sum_count_s(X, L), (X, L)


def test_count_b_is_the_sum_of_count_s_at_thin_points():
    # down to ell = 1e-3, where count_b takes the thin walk's arrays and its
    # base curve has over 10,000 multiples
    rng = random.Random(1023)
    points = [TorusPoint(1e-3, 0.37e-3)]
    for _ in range(6):
        ell = 10 ** rng.uniform(-3.0, -1.0)
        points.append(TorusPoint(ell, rng.uniform(-ell / 2, ell / 2)))
    for X in points:
        for L in (rng.uniform(5.0, 15.0), 25.0):
            assert count_b(X, L) == _sum_count_s(X, L), (X, L)


def test_estimate_b_ladder():
    ladder = estimate_B(SYM, 40.0)
    assert [L for L, _ in ladder] == [10.0, 20.0, 40.0]
    for L, val in ladder:
        assert val == count_b(SYM, L) / L**2
    with pytest.raises(ValueError, match="Lmax"):
        estimate_B(SYM, 9.0)


def test_b_hat_frozen_and_converging():
    assert b_hat(SYM, 80.0) == pytest.approx(0.44578125, rel=1e-12)
    # doubling the cutoff moves the estimate by well under 10%
    assert abs(b_hat(SYM, 80.0) - b_hat(SYM, 40.0)) < 0.1 * b_hat(SYM, 80.0)


def test_one_walk_reads_b_hat():
    # verify and `torus mc` read B(X) as count_b(X, L)/L², b_hat's top rung
    # without the two walks below it: the same float, in the Bers box and
    # at thin points
    ells, taus = sample_bers_box(20, SEED)
    points = [TorusPoint(l, t) for l, t in zip(ells.tolist(), taus.tolist())]
    points += [TorusPoint(ell, 0.37 * ell) for ell in (1e-3, 1e-2)]
    for X in points:
        for L in (40.0, 80.0):
            assert count_b(X, L) / L**2 == b_hat(X, L), (X, L)


def test_systole_slope():
    s, length, mult = systole_slope(SYM)
    assert (s.p, s.q) == (1, 0)  # smallest (q, p) among the three ties
    assert length == pytest.approx(2 * math.acosh(1.5), rel=1e-12)
    assert mult == 3
    s2, length2, mult2 = systole_slope(TorusPoint(0.05, 0.01))
    assert (s2.p, s2.q) == (0, 1)
    assert length2 == pytest.approx(0.05, rel=1e-12)
    assert mult2 == 1


def test_systole_slope_raises_where_the_traces_degenerate():
    # no surface has a systole above BERS_11, so an empty spectrum there is
    # float degeneration.  In an 80-digit walk the systole at (19.5, 17.55)
    # is -10/9, of length 1.7068, and at (45, 44.95) it is -1/1, of length
    # 0.05; in floats the shortest slopes read 1.950 and 16.64 long
    for ell, tau in ((19.5, 17.55), (45.0, 44.95)):
        with pytest.raises(ArithmeticError, match="degenerated"):
            systole_slope(TorusPoint(ell, tau))


def _systole_weight_walking_to_ell(X):
    # the weight's earlier rule, kept as a reference: its own walk of the
    # spectrum to ell + tol rather than systole_slope's to the Bers bound
    slopes = enumerate_short_slopes(X, X.ell + LENGTH_TIE_TOL)
    shortest = slopes[0][1]
    if shortest < X.ell - LENGTH_TIE_TOL:
        return 0.0
    mult = sum(1 for _, l in slopes if l <= shortest + LENGTH_TIE_TOL)
    return 1.0 / mult


def test_systole_weight_matches_the_walk_to_ell():
    ells, taus = sample_bers_box(20000, SEED)
    for ell, tau in zip(ells.tolist(), taus.tolist()):
        X = TorusPoint(ell, tau)
        assert _systole_weight(X) == _systole_weight_walking_to_ell(X), (ell, tau)
    # the fundamental domain's edges: the base curve ties 1/0 at
    # tau = 2 acosh(sinh(ell/2)) and -1/1 at ell minus that, and the
    # neighbours sit on either side of the tie tolerance
    seen = set()
    for ell in (1.77, 1.8, 1.85, 1.9, 1.92):
        edge = 2.0 * math.acosh(math.sinh(ell / 2.0))
        for tau in (edge, ell - edge):
            for step in (0.0, -5e-10, 5e-10, -2e-9, 2e-9):
                X = TorusPoint(ell, tau + step)
                w = _systole_weight(X)
                assert w == _systole_weight_walking_to_ell(X), (ell, tau, step)
                seen.add(w)
    assert seen == {0.0, 0.5, 1.0}
    # the hexagonal point, where 0/1, 1/0 and -1/1 all have length BERS_11
    hexagonal = TorusPoint(BERS_11, BERS_11 / 2.0)
    assert _systole_weight(hexagonal) == _systole_weight_walking_to_ell(hexagonal) == 1.0 / 3.0


def test_every_box_point_has_short_systole():
    # the box bound is sharp: systole <= 2·acosh(3/2) everywhere
    ells, taus = sample_bers_box(2000, SEED)
    assert len(ells) == 2000
    for ell, tau in zip(ells, taus):
        assert 0 < ell <= BERS_11
        assert 0 <= tau < ell
        short = enumerate_short_slopes(TorusPoint(ell, tau), BERS_11 + 1e-9)
        assert short, (ell, tau)


def test_sample_bers_box_determinism():
    a = sample_bers_box(100, SEED)
    b = sample_bers_box(100, SEED)
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
    c = sample_bers_box(100, SEED + 1)
    assert not (a[0] == c[0]).all()


def test_mc_moduli_volume():
    # integrating 1 over the fundamental domain gives the moduli volume
    # pi²/6; frozen anchor for this seed lands 0.03 sigma away
    res = mc_moduli(lambda X: 1.0, 4000, SEED)
    assert res.estimate == pytest.approx(1.6450364853803892, rel=1e-12)
    assert res.stderr == pytest.approx(0.009238519099981394, rel=1e-9)
    assert abs(res.estimate - math.pi**2 / 6) < 3 * res.stderr
    assert res.samples == 4000 and res.seed == SEED


def test_mc_moduli_threads_and_validation():
    a = mc_moduli(lambda X: X.ell, 500, SEED, threads=1)
    b = mc_moduli(lambda X: X.ell, 500, SEED, threads=4)
    assert a == b
    with pytest.raises(ValueError):
        mc_moduli(lambda X: 1.0, 1, SEED)
    with pytest.raises(ArithmeticError, match="ell="):
        mc_moduli(lambda X: math.inf, 100, SEED)


def test_mc_moduli_functionals_see_python_floats():
    # the box draws reach functionals as plain floats, so an error message
    # shows ell=1.65..., not ell=np.float64(1.65...)
    seen = []
    mc_moduli(lambda X: seen.append((type(X.ell), type(X.tau))) or 1.0, 200, SEED)
    assert seen and set(seen) == {(float, float)}
    with pytest.raises(ArithmeticError) as info:
        mc_moduli(lambda X: math.inf, 100, SEED)
    message = str(info.value)
    assert "np." not in message and "float64" not in message
    ell = float(message.split("ell=")[1].split()[0])
    tau = float(message.split("tau=")[1])
    assert 0 < ell <= BERS_11 and 0 <= tau < ell


def test_mc_moduli_streams_its_points():
    # the points reach the serial map as they are drawn; listing all 40,000
    # TorusPoints first peaked at 7.7 MB, streamed the peak is about 1.9 MB
    mc_moduli(lambda X: 1.0, 100, SEED)  # numpy and the kernels are loaded
    tracemalloc.start()
    try:
        res = mc_moduli(lambda X: 1.0, 40000, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak
    assert res.estimate.hex() == "0x1.a6abaec80c85bp+0"
    assert res.stderr.hex() == "0x1.79f96f35515abp-9"
