"""The kernels against reference walks kept here, a Fricke-tree walk and a
scalar lattice-ball walk, and against each other: trace_of_slope against
the traces the walks list."""

import importlib
import inspect
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from bisect import bisect_left
from pathlib import Path

import pytest

import multicurve
from multicurve import _kernels
from multicurve.dtlattice import parity_masks
from multicurve.topology import builtin_surface
from multicurve.torus import TorusPoint, count_b, count_s, fn_to_triple


def _oracle_walk(x, y, z, tmax, visit):
    # reference DFS: test each popped node, then push both children
    if x <= tmax:
        visit(0, 1, x)
    if y <= tmax:
        visit(1, 0, y)
    for sign, zroot in ((1, z), (-1, x * y - z)):
        stack = [(0, 1, x, 1, 0, y, zroot)]
        while stack:
            pl, ql, tl, pr, qr, tr, tm = stack.pop()
            if tm > tmax and tm > tl and tm > tr:
                continue
            pm, qm = pl + pr, ql + qr
            if tm <= tmax:
                visit(sign * pm, qm, tm)
            stack.append((pl, ql, tl, pm, qm, tm, tl * tm - tr))
            stack.append((pm, qm, tm, pr, qr, tr, tm * tr - tl))


def _multiples(t, L):
    # max{k : t <= 2cosh((L/k)/2)}, the k for which count_s(X, k, L) counts
    # the slope: the float quotient L / length, stepped to the largest k
    # that passes the test
    k = max(1, math.floor(abs(L) / (2.0 * math.acosh(t / 2.0))))
    while k > 1 and not t <= 2.0 * math.cosh(L / k / 2.0):
        k -= 1
    while t <= 2.0 * math.cosh(L / (k + 1) / 2.0):
        k += 1
    return k


def _oracle(x, y, z, L):
    """(count_upto, count_multi, slopes_upto) by the reference walk, with
    the multiples of every slope counted by the test count_s makes and the
    slopes as sorted (trace, q, p) triples."""
    slopes = []
    _oracle_walk(x, y, z, 2.0 * math.cosh(L / 2.0), lambda p, q, t: slopes.append((t, q, p)))
    multi = sum(_multiples(t, L) for t, _, _ in slopes)
    slopes.sort()
    return len(slopes), multi, slopes


def _assert_pure_walks_match(triple, radii):
    for L in radii:
        upto, multi, slopes = _oracle(*triple, L)
        case = (triple, L)
        assert _kernels.count_upto(*triple, L) == upto, case
        assert _kernels.count_multi(*triple, L) == multi, case
        assert _kernels.slopes_upto(*triple, L) == slopes, case


def _triple(X):
    tr = fn_to_triple(X)
    return tr.x, tr.y, tr.z


def _exact_ties(t, k, L):
    # the least and the greatest float within 64 ulps of L at which the
    # k-th threshold 2cosh((L/k)/2) is the trace t itself
    for _ in range(64):
        L = math.nextafter(L, -math.inf)
    hits = []
    for _ in range(129):
        if 2.0 * math.cosh(L / k / 2.0) == t:
            hits.append(L)
        L = math.nextafter(L, math.inf)
    return sorted(set(hits[:1] + hits[-1:]))


def _ties(t, k):
    # L = k * length of a slope of trace t, the floats either side, and the
    # radii where its k-th multiple lies on count_multi's threshold exactly
    L = k * 2.0 * math.acosh(t / 2.0)
    return [math.nextafter(L, 0.0), L, math.nextafter(L, math.inf)] + _exact_ties(t, k, L)


def _tie_radii(X, cap):
    # the ties of the three root slopes
    tr = fn_to_triple(X)
    return [L for t in (tr.x, tr.y, tr.z) for k in (1, 2, 3, 7) for L in _ties(t, k) if L <= cap]


RADII = (0.01, 0.2, 1.0, 2.5, 6.0, 15.0, 40.0, 120.0)


def test_pure_walks_match_oracle_in_bers_box():
    rng = random.Random(20261018)
    points = [TorusPoint(1.3, 0.475), TorusPoint(2 * math.acosh(1.5), 0.0)]
    for _ in range(8):
        ell = rng.uniform(0.3, 1.93)
        points.append(TorusPoint(ell, rng.uniform(-ell / 2, ell / 2)))
    for X in points:
        _assert_pure_walks_match(_triple(X), RADII + tuple(_tie_radii(X, 120.0)))


def test_pure_walks_match_oracle_at_thin_points():
    rng = random.Random(1018)
    for ell in (1e-3, 4e-3, 0.02, 0.1):
        X = TorusPoint(ell, rng.uniform(-ell / 2, ell / 2))
        # thin points have deep walks: 59160 slopes shorter than 40 at ell = 1e-3
        radii = [L for L in RADII if L <= 40.0 or ell >= 0.02]
        _assert_pure_walks_match(_triple(X), radii + _tie_radii(X, 40.0))


def test_pure_walks_match_oracle_at_twisted_triples():
    # Far outside the Bers box the traces first fall along some paths below
    # the root, so a child above tmax can still have counted descendants.
    # The walks take any Fricke triple; swapping x and y puts the falling
    # twist path on the other side of the tree.  The ties of the slopes
    # shorter than 5, many of them on that path, put nodes the walk visits
    # before any mediant exceeds both its ends on a threshold.
    radii = [0.25 * i for i in range(1, 49)]
    for X in (TorusPoint(0.5, 2.2), TorusPoint(0.5, -2.2), TorusPoint(0.05, 0.33)):
        x, y, z = _triple(X)
        for triple in ((x, y, z), (y, x, z), (y, x, x * y - z)):
            short = [t for t, _, _ in _oracle(*triple, 5.0)[2]]
            _assert_pure_walks_match(triple, radii + [L for t in short for k in (2, 3) for L in _ties(t, k)])


def test_pure_walks_match_oracle_where_a_spine_root_fails_the_left_cross_test():
    # Off the cusp identity, which the walks never assume.  At tmax = 99.9
    # a node above sqrt(tmax) and both its ends has a left cross grandchild
    # <= tmax: it lies in the band below the gate G, and with a gate of
    # sqrt(tmax) and no cross tests count_upto read 623 instead of 636.
    _assert_pure_walks_match((2.0001, 9.99, 10.0), [2.0 * math.acosh(99.9 / 2.0)])


def test_pure_walks_match_oracle_where_a_spine_root_fails_the_right_cross_test():
    # the mirror image of the triple above: x and y swapped, so the node's
    # right cross grandchild is the one <= tmax; with a gate of sqrt(tmax)
    # and no cross tests slopes_upto listed 622 slopes instead of 636
    _assert_pure_walks_match((9.99, 2.0001, 10.0), [2.0 * math.acosh(99.9 / 2.0)])


def _first_crossing_radii(X):
    # just past the shortest root slope that crosses the base curve's
    # collar: few slopes, but spines whose fixed end is the base trace
    tr = fn_to_triple(X)
    length = 2.0 * math.acosh(min(tr.y, tr.z) / 2.0)
    return [length + d for d in (1e-4, 1e-3, 1e-2)]


def test_pure_walks_match_oracle_where_the_base_trace_is_nearly_2():
    # x = 2*cosh(ell/2) lies within 3e-9 of 2 here, and the spine loops lean
    # on both ends of a spine root being >= 2
    rng = random.Random(1105)
    for ell in (1e-4, 1e-5):
        for tau in (0.0, rng.uniform(-ell / 2, ell / 2), rng.uniform(-ell / 2, ell / 2)):
            X = TorusPoint(ell, tau)
            assert fn_to_triple(X).x - 2.0 < 3e-9
            radii = [0.01, 0.5, 2.0, 10.0, 20.0] + _first_crossing_radii(X)
            _assert_pure_walks_match(_triple(X), radii + _tie_radii(X, 20.0))


def _sweep_triples(rng):
    # Bers-box draws, thin points down to ell = 1e-3, and twisted triples
    # far outside the box, with x and y swapped as well
    out = []
    for _ in range(150):
        ell = 1.93 * math.sqrt(1.0 - rng.random())
        out.append(("box", _triple(TorusPoint(ell, ell * rng.random()))))
    for _ in range(60):
        ell = 10 ** rng.uniform(-3.0, -1.0)
        out.append(("thin", _triple(TorusPoint(ell, rng.uniform(-ell / 2, ell / 2)))))
    for _ in range(15):
        ell = rng.uniform(0.05, 1.0)
        x, y, z = _triple(TorusPoint(ell, rng.uniform(-3.0, 3.0)))
        out += [("twisted", (x, y, z)), ("twisted", (y, x, z)), ("twisted", (y, x, x * y - z))]
    return out


def test_pure_walks_match_oracle_on_a_seeded_sweep():
    # 2,550 reference walks, each against count_upto, count_multi and
    # slopes_upto: 7,650 kernel calls at log-uniform radii
    rng = random.Random(20261018)
    top = {"box": 80.0, "thin": 25.0, "twisted": 12.0}
    calls = 0
    for kind, triple in _sweep_triples(rng):
        for _ in range(10):
            L = 10 ** rng.uniform(-2.0, math.log10(top[kind]))
            upto, multi, slopes = _oracle(*triple, L)
            assert _kernels.count_upto(*triple, L) == upto, (triple, L)
            assert _kernels.count_multi(*triple, L) == multi, (triple, L)
            assert _kernels.slopes_upto(*triple, L) == slopes, (triple, L)
            calls += 3
    assert calls >= 7650


# --- the thin walks' array path ---------------------------------------------
#
# Where a root trace is shorter than L/1024, its spines are recorded in
# segments and their side subtrees expanded in lockstep arrays.  The
# reference walk above knows nothing of either.


def _spy(monkeypatch, *names):
    """The argument tuples of every call to the named _kernels helpers,
    which the kernels look up in the module at each call.  The kept pair of
    the last thin walk is dropped first, so that every spied walk runs."""
    _kernels._thin_walk.cache_clear()
    calls = {name: [] for name in names}
    for name in names:
        def wrapper(*args, f=getattr(_kernels, name), seen=calls[name]):
            seen.append(args)
            return f(*args)
        monkeypatch.setattr(_kernels, name, wrapper)
    return calls


def _assert_counts_match(triple, radii):
    for L in radii:
        upto, multi, _ = _oracle(*triple, L)
        assert _kernels.count_upto(*triple, L) == upto, (triple, L)
        assert _kernels.count_multi(*triple, L) == multi, (triple, L)


def _spine_tie_radii(triple, slopes, ks):
    # the ties of the slopes 1/j on the base curve's spine
    return [L for j in slopes for k in ks for L in _ties(_kernels.trace_of_slope(*triple, 1, j), k)]


def test_array_path_matches_oracle_over_several_spine_segments(monkeypatch):
    # ell = 1e-3, L = 50: each base spine has 9798 traces with side
    # children below tmax, three segments' worth.  At the tie radii the
    # slopes 1/100 and 1/1000 (length 16.6 and 16.8) sit on the threshold
    # of 3 multiples, and 1/20000 (length 35.2) on that of 1, in the part
    # of the spine past its last side child
    calls = _spy(monkeypatch, "_spine", "_lockstep", "_floors")
    triple = _triple(TorusPoint(1e-3, 0.37e-3))
    _assert_counts_match(triple, [50.0] + _spine_tie_radii(triple, (100, 1000), (3,))
                         + _spine_tie_radii(triple, (20000,), (1,)))
    at_50 = [args for args in calls["_lockstep"] if args[3] == 50.0]
    assert len(at_50) >= 3 * sum(args[3] == 50.0 for args in calls["_spine"]) > 0
    # count_multi reads k from the thresholds T_3..T_1
    assert max(_multiples(s, L) for L, s, _ in calls["_floors"]) == 3


def test_array_path_matches_oracle_where_bands_past_3_apply():
    # ell = 1e-2, L = 60: the base spine starts at length 12.0, so up to 5
    # multiples come from the thresholds; the tie radii put the root slopes
    # 1/0 and 1/1 on thresholds 1 to 3, and the spine slopes 1/10 and 1/300
    # on thresholds 3 and 4
    X = TorusPoint(1e-2, 0.3e-2)
    triple = _triple(X)
    radii = [40.0, 60.0] + _tie_radii(X, 60.0) + _spine_tie_radii(triple, (10, 300), (3, 4))
    _assert_counts_match(triple, radii)


def test_array_path_matches_oracle_with_more_lanes_than_one_array_holds(monkeypatch):
    # ell = 3e-3, L = 80: more side children than one lane array holds,
    # and a next generation of lanes larger than _SEGMENT, split into lane
    # sets of _SEGMENT lanes (a spine segment gives at most _SEGMENT - 1)
    calls = _spy(monkeypatch, "_lockstep", "_tally")
    _assert_counts_match(_triple(TorusPoint(3e-3, 0.37 * 3e-3)), [80.0])
    assert sum(len(args[2]) for args in calls["_lockstep"]) > 2 * _kernels._SEGMENT
    assert _kernels._SEGMENT in [len(args[0]) for args in calls["_tally"]]


def test_array_path_is_mirror_symmetric(monkeypatch):
    # (y, x, z) is the mirror image of the tree of (x, y, z), and every trace
    # in it the same float (a*b = b*a), so the counts agree; the base curve
    # is then the right end, and its spines are the right spines
    calls = _spy(monkeypatch, "_spine")
    for ell, L in ((1e-3, 50.0), (3e-3, 80.0), (1e-2, 60.0)):
        x, y, z = _triple(TorusPoint(ell, 0.37 * ell))
        for kernel in (_kernels.count_upto, _kernels.count_multi):
            calls["_spine"].clear()
            assert kernel(y, x, z, L) == kernel(x, y, z, L), (ell, L, kernel)
            # the mirrored walk's spine edges (y, x, z) and (y, x, xy - z),
            # then the direct walk's (x, y, z) and (x, y, xy - z)
            assert [args[:2] for args in calls["_spine"]] == [(x, y)] * 4


def test_array_path_overflows_to_inf_silently_as_the_scalar_loop_does():
    # past L = 709 tmax is above 1.3e154, so a product of two traces can
    # pass the float range: inf, then dropped as above tmax, in arrays as in
    # Python floats, and without numpy's overflow warning
    triple = _triple(TorusPoint(0.5, 0.185))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_counts_match(triple, [750.0])


PAIR_PATH = ("_thin_walk", "_spine", "_lockstep", "_climb", "_tally", "_floors")


def test_array_path_runs_at_thin_points_only(monkeypatch):
    # moduli-mc's hot loop stays on the scalar walk: Bers-box points with
    # ell >= L/1024 never reach the kept pair, the pair tally or the array
    # helpers at L = 80, the boundary ell = 80/1024 included, while a thin
    # point does.  Each call runs phase 1 once, with the thresholds of the
    # one number asked for, and a thin walk runs it once for both numbers
    calls = _spy(monkeypatch, "_phase1", *PAIR_PATH)
    rng = random.Random(80)
    points = [TorusPoint(80.0 / 1024, 0.0), TorusPoint(80.0 / 1024, 0.04)]
    for _ in range(24):
        ell = rng.uniform(80.0 / 1024, 1.93)
        points.append(TorusPoint(ell, rng.uniform(0.0, ell)))
    for X in points:
        count_s(X, 1, 80.0)
        count_b(X, 80.0)
    phase1 = calls.pop("_phase1")
    assert [args[5] for args in phase1] == [_kernels._UPTO, _kernels._thresholds(80.0)] * len(points)
    assert not any(calls.values())
    phase1.clear()
    count_b(TorusPoint(1e-3, 0.0), 20.0)
    assert calls["_thin_walk"] and calls["_spine"] and calls["_climb"]
    assert [args[5] for args in phase1] == [_kernels._thresholds(20.0)]


def test_short_spines_stay_on_the_scalar_walk(monkeypatch):
    # ell = 1e-2 at L = 12 and 3e-3 at L = 12 are shorter than L/1024, but
    # the base curve's spines hold about 25 traces <= tmax and none at all:
    # the scalar loop counts them faster than the pair tally would
    calls = _spy(monkeypatch, *PAIR_PATH)
    for ell in (1e-2, 3e-3):
        X = TorusPoint(ell, 0.37 * ell)
        _assert_counts_match(_triple(X), [12.0] + [L for L in _tie_radii(X, 12.0) if L > 11.0])
    assert not any(calls.values())
    # at L = 14 the spines hold about 330 traces each
    count_b(TorusPoint(1e-2, 0.37e-2), 14.0)
    assert calls["_thin_walk"] and calls["_climb"]


def test_short_spine_segments_take_the_array_path(monkeypatch):
    # ell = 1e-2, L = 24: each base spine records a segment of fewer than
    # _LANES traces with side children <= tmax.  It is tallied in arrays
    # like a long one, from thresholds built once per spine, and its side
    # children, too few for a lockstep step, go on to the scalar stack
    calls = _spy(monkeypatch, "_spine", "_floors", "_lockstep")
    X = TorusPoint(1e-2, 0.37e-2)
    triple = _triple(X)
    _assert_counts_match(triple, [24.0] + _spine_tie_radii(triple, (1, 2, 5), (1, 2)))
    assert calls["_spine"] and len(calls["_floors"]) == len(calls["_spine"])
    assert calls["_lockstep"] and all(len(args[2]) < _kernels._LANES for args in calls["_lockstep"])
    _assert_counts_match(triple, [25.0])


def test_array_path_records_a_first_spine_node_past_the_gate(monkeypatch):
    # twisted thin points whose phase-2 edge (x, y, z) has its mediant z
    # above the gate max(T_2, G) and its other end y below it, at a bound
    # between z*y - x and z*z - z: z's side child is <= tmax, so the spine
    # is recorded there, and _climb waits until the predecessor passes the
    # gate
    calls = _spy(monkeypatch, "_spine")
    for tau in (1.0, 1.5, 3.0):
        x, y, z = triple = _triple(TorusPoint(1e-2, tau))
        L = 2.0 * math.acosh((z * y - x + z * z - z) / 4.0)
        calls["_spine"].clear()
        _assert_counts_match(triple, [L])
        t, a, s, _, tmax, th = calls["_spine"][0]
        assert (t, a, s) == (x, y, z)
        assert a <= max(th[-2], _kernels._gate(tmax)) < s <= tmax and s * a - t <= tmax


def test_close_tallies_both_numbers_in_one_pass():
    # the scalar loop tallies the count beside the sum: thick walks read
    # the sum under count_upto's cuts at 2 or count_multi's thresholds,
    # thin walks both numbers under count_multi's.  Each must be the oracle's,
    # spine pairs included: at (2.0001, 9.99, 10.0) and tmax = 99.9 the
    # walk meets a node in the band below the gate whose left cross
    # grandchild alone is <= tmax
    cases = [((2.0001, 9.99, 10.0), 2.0 * math.acosh(99.9 / 2.0))]
    for ell, L in ((1e-2, 24.0), (3e-3, 30.0), (0.5, 12.0)):
        cases.append((_triple(TorusPoint(ell, 0.37 * ell)), L))
    x, y, z = _triple(TorusPoint(0.5, 2.2))
    cases += [((x, y, z), 10.0), ((y, x, x * y - z), 10.0)]
    for triple, L in cases:
        upto, multi, _ = _oracle(*triple, L)
        tmax = _kernels._trace_bound(L)
        th = _kernels._thresholds(L)
        # phase 1 tallies its count beside the sum, under either thresholds
        count, total, grow = _kernels._phase1(*triple, L, tmax, th)
        assert grow, (triple, L)
        assert _kernels._phase1(*triple, L, tmax, _kernels._UPTO) == (count, count, grow)
        n, m = _kernels._close(list(grow), L, tmax, _kernels._UPTO)
        assert n == m == upto - count, (triple, L)
        assert _kernels._close(list(grow), L, tmax, th) == (n, multi - total), (triple, L)


def _close_reference(grow, L, tmax, th):
    """_close as a loop that stacks every child <= tmax and tests a node for
    a spine pair only once it takes the node back, by the rule with cross
    tests: above max(T_2, sqrt(tmax)) and both its ends, with both cross
    grandchildren above tmax.  No child is closed where it is made, and no
    leaf is taken on sight."""
    t2, t3, least = th[-2], th[-3], th[0]
    last = len(th) - 1
    count = n = 0
    gate = max(t2, math.sqrt(tmax))
    while grow:
        tl, tr, tm = grow.pop()
        while True:
            count += 1
            if tm <= t2:
                if tm > t3:
                    n += 1
                elif tm > least:
                    n += last - bisect_left(th, tm)
                else:
                    n += _kernels._mult(tm, L, th) - 1
            cr = tm * tr - tl
            cl = tl * tm - tr
            if tm > gate and tl < tm and tr < tm and cl * tm - tl > tmax and tm * cr - tr > tmax:
                a, s = tm, cl
                while s <= tmax:
                    count += 1
                    a, s = s, tl * s - a
                a, s = tm, cr
                while s <= tmax:
                    count += 1
                    a, s = s, s * tr - a
                break
            if cr <= tmax:
                grow.append((tm, tr, cr))
            if cl <= tmax:
                tr, tm = tm, cl
            else:
                break
    return count, count + n


def _close_calls(monkeypatch, triple, radii):
    """(caller, phase-2 edges, L, tmax) of each _close call that count_upto
    and count_multi make at the radii, the edges copied before the call
    empties them."""
    _kernels._thin_walk.cache_clear()
    close, seen = _kernels._close, []

    def record(grow, L, tmax, th):
        seen.append((sys._getframe(1).f_code.co_name, list(grow), L, tmax))
        return close(grow, L, tmax, th)

    monkeypatch.setattr(_kernels, "_close", record)
    for L in radii:
        _kernels.count_upto(*triple, L)
        _kernels.count_multi(*triple, L)
    monkeypatch.undo()
    return seen


def _assert_close_matches_reference(monkeypatch, triple, radii):
    """Every _close call the walks make at the radii, replayed under
    count_upto's cuts and count_multi's thresholds, against the reference
    loop; returns the callers seen."""
    calls = _close_calls(monkeypatch, triple, radii)
    for _, grow, L, tmax in calls:
        for th in (_kernels._UPTO, _kernels._thresholds(L)):
            expected = _close_reference(list(grow), L, tmax, th)
            assert _kernels._close(list(grow), L, tmax, th) == expected, (triple, L, th)
    return {caller for caller, _, _, _ in calls}


def _slope_tie_radii(triple, L, every, ks):
    # the ties of every `every`-th slope shorter than L, most of them met
    # in phase 2: at k = 1 a child's trace is tmax itself, at k = 2 it is
    # T_2, in the band (sqrt(tmax), G] below the gate
    slopes = _kernels.slopes_upto(*triple, L)[::every]
    return [r for t, _, _ in slopes for k in ks for r in _ties(t, k)]


def test_close_matches_the_reference_loop_in_the_bers_box(monkeypatch):
    rng = random.Random(2025)
    points = [TorusPoint(1.3, 0.475), TorusPoint(2 * math.acosh(1.5), 0.0)]
    for _ in range(6):
        ell = rng.uniform(0.3, 1.93)
        points.append(TorusPoint(ell, rng.uniform(-ell / 2, ell / 2)))
    for X in points:
        triple = _triple(X)
        radii = [20.0, 40.0, 80.0, 160.0] + _tie_radii(X, 160.0) + _slope_tie_radii(triple, 12.0, 5, (1, 2, 3))
        assert _assert_close_matches_reference(monkeypatch, triple, radii) == {"_count"}


def test_close_matches_the_reference_loop_at_thin_points(monkeypatch):
    # the lane sets under _LANES that _lockstep hands back, and the edges
    # whose fixed end is not the short root, both reach _close
    for ell, L in ((1e-2, 24.0), (1e-2, 60.0), (3e-3, 30.0), (1e-3, 20.0)):
        X = TorusPoint(ell, 0.37 * ell)
        triple = _triple(X)
        radii = [L] + _tie_radii(X, L) + _spine_tie_radii(triple, (3, 40), (1, 2))
        callers = _assert_close_matches_reference(monkeypatch, triple, radii)
        assert {"_thin_walk", "_lockstep"} <= callers, (ell, L)


def test_close_matches_the_reference_loop_at_twisted_and_swapped_triples(monkeypatch):
    # off the Bers box, and off the cusp identity where a node in the band
    # below the gate has one cross grandchild <= tmax
    cases = [((2.0001, 9.99, 10.0), [2.0 * math.acosh(99.9 / 2.0)]),
             ((9.99, 2.0001, 10.0), [2.0 * math.acosh(99.9 / 2.0)])]
    for X in (TorusPoint(0.5, 2.2), TorusPoint(0.5, -2.2), TorusPoint(0.05, 0.33)):
        x, y, z = _triple(X)
        for triple in ((x, y, z), (y, x, z), (y, x, x * y - z)):
            cases.append((triple, [2.5, 5.0, 10.0, 12.0] + _slope_tie_radii(triple, 5.0, 3, (1, 2, 3))))
    for triple, radii in cases:
        assert _assert_close_matches_reference(monkeypatch, triple, radii) == {"_count"}


# --- the gate --------------------------------------------------------------
#
# A phase-2 child c above G, the root of c*c - c = tmax with a margin of
# 2^-40, is closed by that comparison alone: every cross grandchild below it
# is at least fl(fl(c*c) - c), which the gate puts above tmax.


def test_gate_puts_every_cross_grandchild_above_tmax():
    # at radii from 0.1 to 1,400, tmax from 2.0025 to about 1e304: just
    # above G, at seeded floats up to 10^6 G, and at seeded floats up to
    # 1e308, where c*c passes the float range (c above about 1.3e154)
    rng = random.Random(26)
    radii = [0.1 * 14000.0 ** (i / 199) for i in range(200)] + [709.0, 709.8, 710.0, 1000.0]
    radii += [rng.uniform(0.1, 1400.0) for _ in range(200)]
    overflowed = 0
    for L in radii:
        tmax = _kernels._trace_bound(L)
        gate = _kernels._gate(tmax)
        cs = [math.nextafter(gate, math.inf)]
        cs += [math.nextafter(cs[-1], math.inf) for _ in range(3)]
        cs += [gate * (1.0 + 10.0 ** rng.uniform(-15.0, 6.0)) for _ in range(40)]
        cs += [max(cs[0], 10.0 ** rng.uniform(math.log10(gate), 308.0)) for _ in range(20)]
        for c in cs:
            assert c > gate and c * c - c > tmax, (L, c)
        overflowed += sum(math.isinf(c * c) for c in cs)
        # the margin is small: 2^-35 below G the bound fails
        c = gate * (1.0 - 2.0**-35)
        assert not c * c - c > tmax, (L, c)
    assert overflowed >= 1000, overflowed


def _band_children(x, y, z, L):
    """Nodes the reference walk visits above both their ends, with trace in
    the band (sqrt(tmax), G] that the walks walk rather than close."""
    tmax = 2.0 * math.cosh(L / 2.0)
    low, gate = math.sqrt(tmax), _kernels._gate(tmax)
    band = 0
    for zroot in (z, x * y - z):
        stack = [(x, y, zroot)]
        while stack:
            tl, tr, tm = stack.pop()
            if tm > tmax and tm > tl and tm > tr:
                continue
            band += tl < tm and tr < tm and low < tm <= gate
            stack += [(tl, tm, tl * tm - tr), (tm, tr, tm * tr - tl)]
    return band


def test_pure_walks_match_oracle_at_small_radii_where_the_band_is_wide():
    # At L = 0.3 to 6 the band (sqrt(tmax), G] is wide against tmax, so
    # children in it, walked and not closed, occur: 104 on these 1,292
    # walks of Bers-box points and twisted triples, x and y swapped too
    rng = random.Random(2026)
    triples = [_triple(TorusPoint(1.3, 0.475)), _triple(TorusPoint(2 * math.acosh(1.5), 0.0))]
    for _ in range(24):
        ell = rng.uniform(0.3, 1.93)
        triples.append(_triple(TorusPoint(ell, rng.uniform(-ell / 2, ell / 2))))
    for _ in range(4):
        ell = rng.uniform(0.05, 1.0)
        x, y, z = _triple(TorusPoint(ell, rng.uniform(-3.0, 3.0)))
        triples += [(x, y, z), (y, x, z)]
    radii = [0.3 + 0.15 * i for i in range(38)]
    band = 0
    for triple in triples:
        _assert_pure_walks_match(triple, radii)
        band += sum(_band_children(*triple, L) for L in radii)
    assert band >= 50, band


def test_climb_counts_as_a_plain_loop_does():
    # _climb steps four traces to a pass against nextafter(tmax); a plain
    # loop steps one at a time against tmax.  With tmax on a trace and one
    # float below it, every spine from 0 to 14 traces is met: 0-3 traces,
    # exact multiples of 4, multiples of 4 with a remainder, and a first
    # trace s above tmax
    def plain(t, a, s, tmax):
        n = 0
        while s <= tmax:
            n += 1
            a, s = s, t * s - a
        return n

    for t, a, s in ((2.5, 3.0, 4.0), (2.0 + 2.0**-40, 5.0, 5.0 + 1e-9), (40.0, 3.0, 7.0)):
        bounds = [s / 2.0]
        u, v = a, s
        for _ in range(14):
            bounds += [v, math.nextafter(v, -math.inf)]
            u, v = v, t * v - u
        counts = [plain(t, a, s, tmax) for tmax in bounds]
        assert sorted(set(counts)) == list(range(15)), (t, a, s)
        assert [_kernels._climb(t, a, s, tmax) for tmax in bounds] == counts, (t, a, s)


# --- the kept pair of a thin walk -------------------------------------------


def _walks_in_both_orders(triple, L):
    _kernels._thin_walk.cache_clear()
    first = (_kernels.count_upto(*triple, L), _kernels.count_multi(*triple, L))
    _kernels._thin_walk.cache_clear()
    multi = _kernels.count_multi(*triple, L)
    return first, (_kernels.count_upto(*triple, L), multi)


def test_kept_pair_matches_oracle_in_either_order():
    # thin points at their tie radii, where slopes sit on count_multi's
    # thresholds, and at the radii either side of the spine slopes 1/j
    for ell, top in ((1e-2, 60.0), (3e-3, 30.0), (1e-3, 20.0)):
        X = TorusPoint(ell, 0.37 * ell)
        triple = _triple(X)
        radii = [top] + _tie_radii(X, top) + _spine_tie_radii(triple, (3, 40), (1, 2))
        for L in radii:
            upto, multi, _ = _oracle(*triple, L)
            assert _walks_in_both_orders(triple, L) == ((upto, multi), (upto, multi)), (ell, L)


def test_count_pair_at_one_point_walks_once(monkeypatch):
    # _spine runs once per spine edge of the base curve in each walk
    calls = _spy(monkeypatch, "_spine")
    upto, multi = _kernels.count_upto, _kernels.count_multi
    L = 20.0
    X, Y = TorusPoint(1e-3, 0.37e-3), TorusPoint(1e-3, 0.2e-3)
    x, y, z = _triple(X)

    def spines(*kernel_calls):
        calls["_spine"].clear()
        for kernel, args in kernel_calls:
            kernel(*args)
        return len(calls["_spine"])

    at_x = spines((upto, (x, y, z, L)))
    at_y = spines((multi, _triple(Y) + (L,)))
    assert at_x > 0 and at_y > 0
    # count_s then count_b at one (X, L) walk once, and in the other order
    _kernels._thin_walk.cache_clear()
    assert spines((count_s, (X, 1, L)), (count_b, (X, L))) == at_x
    assert spines((count_b, (Y, L)), (count_s, (Y, 1, L))) == at_y
    # L one ulp away, the mirrored roots, or another point in between
    assert spines((upto, (x, y, z, L)), (multi, (x, y, z, math.nextafter(L, math.inf)))) == 2 * at_x
    assert spines((upto, (x, y, z, L)), (multi, (y, x, z, L))) == 2 * at_x
    assert spines((upto, (x, y, z, L)), (upto, _triple(Y) + (L,)), (multi, (x, y, z, L))) == 2 * at_x + at_y
    # the same call again reads the kept pair
    _kernels._thin_walk.cache_clear()
    assert spines((multi, (x, y, z, L)), (multi, (x, y, z, L)), (upto, (x, y, z, L))) == at_x


def test_errors_are_raised_on_every_call_never_kept(monkeypatch):
    calls = _spy(monkeypatch, "_thin_walk", "_spine")
    thin = _triple(TorusPoint(1e-3, 0.37e-3))
    kept = _kernels.count_upto(*thin, 20.0)
    for _ in range(2):
        for kernel in (_kernels.count_upto, _kernels.count_multi):
            # a thin walk whose traces fall to 2 inside it
            with pytest.raises(ArithmeticError, match="inside the walk"):
                kernel(2.01, 1e80, 1.5e80, 1400.0)
            # the kept pair's roots at an unbounded or too large radius
            with pytest.raises(ArithmeticError, match="not finite"):
                kernel(*thin, math.nan)
            with pytest.raises(OverflowError):
                kernel(*thin, 1500.0)
            with pytest.raises(ArithmeticError, match="root traces"):
                kernel(thin[0], thin[1], 2.0, 20.0)
    # the failing thin walk ran on each of its four calls; the bad radii and
    # roots never got past the checks to the kept pair, which still holds
    assert calls["_thin_walk"] == [thin + (20.0,)] + [(2.01, 1e80, 1.5e80, 1400.0)] * 4
    walked = len(calls["_spine"])
    assert _kernels.count_upto(*thin, 20.0) == kept
    assert len(calls["_spine"]) == walked


def test_thin_walk_memory_does_not_grow_with_the_radius():
    # ell = 1e-4: from L = 40 to 60 count_multi grows from 0.8 to 1.8
    # million, and the scalar loop alone peaked at 12 MB at L = 60, its
    # stack holding a side child per spine node.  Spine segments and lane
    # arrays of at most 4096 floats hold the peak under 1 MB.  The counts
    # are the scalar loop's.  Each includes the base curve's 400,000th or
    # 600,000th multiple: L/k rounds to ell there, so T_k is the base trace
    # x itself, and count_s(X, k, L) counts the slope.  For ell read as its
    # binary value the exact multiplicity at L = 40 is 399,999; reading the
    # base curve from ell itself is ROADMAP item 3.
    tr = fn_to_triple(TorusPoint(1e-4, 0.37e-4))
    for L, count in ((40.0, 803860), (60.0, 1811578)):
        tracemalloc.start()
        try:
            n = _kernels.count_multi(tr.x, tr.y, tr.z, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == count, L
        assert peak < 2**20, (L, peak)


def test_pure_walks_match_oracle_at_tiny_zero_and_negative_radii():
    # at these radii the thresholds T_k round onto 2 or lie in the mirror
    # image cosh(-u) = cosh(u), and the walks still count what count_s
    # counts
    _assert_pure_walks_match(_triple(TorusPoint(1e-3, 0.0)), [1e-9, 1e-6, 1e-4, 0.0, -0.5, -3.0])


def test_pure_walks_reject_unbounded_radius():
    # an infinite or NaN trace bound prunes nothing, so the walk would not end
    for L in (math.inf, math.nan):
        for kernel in (_kernels.count_upto, _kernels.count_multi, _kernels.slopes_upto):
            with pytest.raises(ArithmeticError, match="not finite"):
                kernel(3.0, 3.0, 3.0, L)
    with pytest.raises(OverflowError):
        _kernels.count_upto(3.0, 3.0, 3.0, 1500.0)


def test_pure_walks_reject_roots_at_or_below_2():
    # from x = 2 each left child is 2*5 - 5 = 5, a spine that never grows,
    # and below 2 a length is undefined: the walk hung or raised a bare
    # ValueError from acosh.  The mediant roots z and x*y - z are checked
    # too: at z = 2, x*y - z = 1 or z = NaN the walks hung, and count_multi
    # divided by the zero length of z = 2
    bad = (2.0, 1.5, math.nextafter(2.0, 0.0), -3.0, math.inf, math.nan)
    for kernel in (_kernels.count_upto, _kernels.count_multi, _kernels.slopes_upto):
        for t in bad:
            # (5, 5, 25 - t) puts t at x*y - z
            for roots in ((t, 5.0, 5.0), (5.0, t, 5.0), (5.0, 5.0, t), (5.0, 5.0, 25.0 - t)):
                with pytest.raises(ArithmeticError, match="root traces"):
                    kernel(*roots, 5.0)
        for roots in ((5.0, 5.0, 2.0), (5.0, 5.0, 24.0), (3.0, 3.0, math.nan)):
            with pytest.raises(ArithmeticError, match="root traces"):
                kernel(*roots, 5.0)
    # a root just above 2 is walked as before
    _assert_pure_walks_match((2.0000001, 5.0, 5.0), [5.0])


def test_pure_walks_raise_arithmetic_error_where_a_trace_inside_falls_to_2():
    # off the cusp identity a trace below the roots can fall to 2 or below
    # although all four roots pass the check; acosh raised a bare
    # ValueError there, which the command line maps to exit 2, not 3.
    # slopes_upto hung at (2.1, 10, 2.2): the first trace below 2 appears
    # at depth 1, and from there on the negative traces are always pushed.
    # At (3, 7, 3) the child 3*3 - 7 is exactly 2, and its spine never
    # grows: count_upto walked on until memory ran out, and count_multi
    # divided by the zero length.  The count walks rest on _mult raising at
    # such a trace, and walk on without end where it does not.  A child
    # interpreter with a 512 MB address space and a timeout runs every
    # case, so that a walk that does not end fails this test alone.
    child = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
from multicurve import _kernels
for roots, L in (((2.01, 1e80, 1.5e80), 1400.0), ((2.1, 10.0, 2.2), 5.0), ((3.0, 7.0, 3.0), 5.0)):
    for kernel in (_kernels.count_upto, _kernels.count_multi, _kernels.slopes_upto):
        start = time.perf_counter()
        try:
            kernel(*roots, L)
        except ArithmeticError as err:
            print(type(err).__name__, time.perf_counter() - start, err)
"""
    src = str(Path(_kernels.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    ran = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    assert ran.returncode == 0, ran.stderr[-2000:]
    lines = ran.stdout.splitlines()
    assert len(lines) == 9, ran.stdout
    for line, L in zip(lines, [1400.0] * 3 + [5.0] * 6):
        # ArithmeticError itself: no ValueError, ZeroDivisionError or other
        kind, seconds, message = line.split(" ", 2)
        assert kind == "ArithmeticError" and float(seconds) < 1.0, line
        assert message.startswith("a trace inside the walk") and "L=%r" % (L,) in message, line


def test_lattice_ball_kernels_reject_non_finite_radius():
    # a NaN radius would count -1 points, and an infinite one would never end
    for L in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            _kernels.count_ball((1.0,), (1.0,), (0,), L)
        with pytest.raises(ValueError, match="finite"):
            _kernels.ball_m_vectors((1.0, 0.5), (3,), L)
    assert _kernels.count_ball((1.0,), (1.0,), (0,), 0.0) == 0
    assert _kernels.count_ball((1.0,), (1.0,), (0,), -1.0) == 0
    assert list(_kernels.ball_m_vectors((1.0,), (0,), -1.0)) == []


def test_backend_identifies_itself():
    assert multicurve.kernel_backend == "pure"


def test_benchmark_harness_finds_the_kernel_module(monkeypatch):
    # the micro-table times every backend that backends() finds, and the
    # run's environment line names the active one: both must see the one
    # kernel module
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    kernel_table = importlib.import_module("kernel_table")
    run = importlib.import_module("run")
    assert kernel_table.backends() == {"pure": _kernels}
    assert run.environment(1, "moduli-mc")["kernel_backend"] == "pure"


def test_pure_kernel_basics():
    # S11 unit ball of radius 2 has 6 points; at an integer radius L it has
    # L^2 + L, here over 10^7 m-vectors and so over 300 array passes
    assert _kernels.count_ball((1.0,), (1.0,), (0,), 2.0) == 6
    assert _kernels.count_ball((1.0,), (1.0,), (0,), 1e7) == 10**14 + 10**7
    assert _kernels.count_ball((3.0,), (3.0,), (0,), 2.0) == 0
    assert _kernels.trace_of_slope(3.0, 3.0, 3.0, 0, 1) == 3.0
    assert _kernels.trace_of_slope(3.0, 3.0, 3.0, 1, 0) == 3.0
    assert _kernels.trace_of_slope(3.0, 3.0, 3.0, 2, 1) == 6.0
    assert _kernels.count_upto(3.0, 3.0, 3.0, 9.0) == 24
    assert _kernels.count_multi(3.0, 3.0, 3.0, 9.0) == 36


def test_trace_of_slope_is_the_listed_trace():
    rng = random.Random(7)
    triples = [(3.0, 3.0, 3.0)]
    for _ in range(10):
        ell = rng.uniform(0.3, 3.0)
        X = TorusPoint(ell, rng.uniform(-ell, 2 * ell))
        tr = fn_to_triple(X)
        triples.append((tr.x, tr.y, tr.z))
    slopes = [(0, 1), (1, 0), (1, 1), (-1, 1), (2, 1), (-3, 2), (5, 8), (-7, 5)]
    for x, y, z in triples:
        for p, q in slopes:
            t = _kernels.trace_of_slope(x, y, z, p, q)
            assert t > 2.0, ((x, y, z), (p, q))
            # a radius a little past the slope's length: the walk lists it
            listed = _kernels.slopes_upto(x, y, z, 2.0 * math.acosh(t / 2.0) + 0.1)
            assert [u for u, b, a in listed if (a, b) == (p, q)] == [t], ((x, y, z), (p, q))


def _spine_steps(x, y, z, L):
    """(slopes_upto's list, the number of times each of its two spine
    loops stepped), by tracing the lines that step them."""
    code = _kernels.slopes_upto.__code__
    source, first = inspect.getsourcelines(_kernels.slopes_upto)
    steps = {
        first + i: side
        for i, line in enumerate(source)
        for side, text in (("left", "tl * s - a, p + pl, q + ql"), ("right", "s * tr - a, p + pr, q + qr"))
        if text in line
    }
    assert sorted(steps.values()) == ["left", "right"]
    ran = {"left": 0, "right": 0}

    def lines(frame, event, arg):
        if event == "line" and frame.f_lineno in steps:
            ran[steps[frame.f_lineno]] += 1
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code is code else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        listed = _kernels.slopes_upto(x, y, z, L)
    finally:
        sys.settrace(before)
    return listed, ran


def test_slopes_upto_lists_count_upto_slopes():
    rng = random.Random(11)
    cases = [((3.0, 3.0, 3.0), L) for L in (1.9, 2.0 * math.acosh(1.5), 9.0, 14.0, 30.0)]
    for _ in range(10):
        ell = rng.uniform(0.5, 1.9)
        cases.append((_triple(TorusPoint(ell, rng.uniform(0.0, ell))), rng.uniform(1.0, 8.0)))
    # thin points, twisted either way: nearly all their slopes lie on the
    # two spines whose fixed end is the base trace
    for ell in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
        cases.append((_triple(TorusPoint(ell, rng.uniform(-ell, ell))), rng.uniform(10.0, 30.0)))
    cases.append((_triple(TorusPoint(1e-3, 0.37e-3)), 30.0))
    for triple, L in cases:
        slopes = _kernels.slopes_upto(*triple, L)
        assert len(slopes) == _kernels.count_upto(*triple, L), (triple, L)
        assert slopes == _oracle(*triple, L)[2], (triple, L)
    # at (3, 3, 3) slopes share traces, and ties go by q, then p
    assert _kernels.slopes_upto(3.0, 3.0, 3.0, 2.0 * math.acosh(3.0) + 1e-9) == [
        (3.0, 0, 1), (3.0, 1, 0), (3.0, 1, 1), (6.0, 1, -1), (6.0, 1, 2), (6.0, 2, 1)]


def test_slopes_upto_lists_thin_spines_in_its_tight_loops():
    # At (1e-3, 30) the walk closes spine pairs at the roots: all but 4 of
    # its 29,597 slopes, the twist slopes 1/k and -1/k, come from the loop
    # that steps left spines, not from the node stack.  With x and y
    # swapped the short root is the right end, and the spines k/1 and -k/1
    # come from the other loop.  The list is the reference walk's each time.
    x, y, z = _triple(TorusPoint(1e-3, 0.37e-3))
    for triple, side in (((x, y, z), "left"), ((y, x, x * y - z), "right")):
        listed, ran = _spine_steps(*triple, 30.0)
        assert listed == _oracle(*triple, 30.0)[2]
        assert len(listed) == 29597
        assert ran[side] == len(listed) - 4, (side, ran)


# --- lattice balls against the scalar walk ---------------------------------
#
# The reference is the scalar walk count_ball used before it counted in
# arrays: one Python step per m-vector and per twist, with the same float
# operations in the same order.


def _oracle_parity_ok(masks, m):
    for mask in masks:
        s = 0
        for b in range(len(m)):
            if mask >> b & 1:
                s += m[b]
        if s & 1:
            return False
    return True


def _oracle_m_vectors(ws, masks, L, i, cost, m):
    if i == len(m):
        yield (), L
        return
    w = ws[i]
    mi = 0
    if i == len(m) - 1:
        while cost + mi * w <= L:
            m[i] = mi
            if _oracle_parity_ok(masks, m):
                yield tuple(m), L - (cost + mi * w)
            mi += 1
    else:
        while cost + mi * w <= L:
            m[i] = mi
            yield from _oracle_m_vectors(ws, masks, L, i + 1, cost + mi * w, m)
            mi += 1


def _oracle_tcount(ls, zero_m, i, budget):
    n = len(ls)
    if i == n:
        return 1
    k = math.floor(budget / ls[i])
    if k < 0:
        return 0
    if i == n - 1:
        return k + 1 if zero_m[i] else 2 * k + 1
    total = _oracle_tcount(ls, zero_m, i + 1, budget)
    for t in range(1, k + 1):
        sub = _oracle_tcount(ls, zero_m, i + 1, budget - t * ls[i])
        total += sub if zero_m[i] else 2 * sub
    return total


def _oracle_ball(ws, ls, masks, L):
    """(count_ball, ball_m_vectors) by the scalar walk."""
    ms = list(_oracle_m_vectors(ws, masks, L, 0, 0.0, [0] * len(ws)))
    if L <= 0:
        return 0, ms
    return sum(_oracle_tcount(ls, [mi == 0 for mi in m], 0, b) for m, b in ms) - 1, ms


def _assert_ball_matches(name, ws, ls, L):
    masks = parity_masks(builtin_surface(name)[1])
    count, ms = _oracle_ball(ws, ls, masks, L)
    case = (name, ws, ls, L)
    assert _kernels.count_ball(ws, ls, masks, L) == count, case
    assert list(_kernels.ball_m_vectors(ws, masks, L)) == ms, case


def _sweep_balls(rng):
    # weights k/10 and k/4, most inexact in binary, and jittered ones; radii
    # are sums of weights added left to right as the walk adds costs, and
    # the floats either side, so that points sit on the boundary
    def weight():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(1, 8) / 10
        if kind == 1:
            return rng.randint(1, 8) / 4
        return rng.randint(1, 8) / 4 * (1.0 + rng.uniform(-0.05, 0.05))

    balls = []
    while len(balls) < 240:
        name = rng.choice(("S11", "S04", "S12", "S20"))
        N = builtin_surface(name)[0].cuff_count
        ws = tuple(weight() for _ in range(N))
        ls = tuple(weight() for _ in range(N))
        L = 0.0
        for v in rng.choices(ws + ls, k=rng.randint(1, 6)):
            L += v
        # volume of the real ball, 2^N L^2N / ((2N)! prod w_i l_i), sizes it
        if 2**N * L ** (2 * N) / math.factorial(2 * N) / math.prod(ws + ls) > 20000:
            continue
        balls += [(name, ws, ls, r) for r in (math.nextafter(L, 0.0), L, math.nextafter(L, math.inf))]
    return balls


def test_count_ball_matches_the_scalar_walk_on_a_seeded_sweep():
    for ball in _sweep_balls(random.Random(20261018)):
        _assert_ball_matches(*ball)


@pytest.mark.parametrize(
    "name, ws, ls, L",
    [
        # the boundary ties of the closed-forms benchmark (121 and 1080)
        ("S12", (0.1, 0.1), (0.1, 0.1), 0.6),
        ("S20", (0.3, 0.7, 2.0), (1.5, 1.3, 2.0), 7.0),
        # a leaf whose budget rounds below zero
        ("S12", (1.0, 0.4), (0.1, 0.75), 1.0 + 0.75 + 0.75),
        # more m-vectors than one array pass holds, and t_1, t_2 expansions
        # that take more than one
        ("S11", (0.001,), (1.0,), 40.0),
        ("S20", (0.75, 1.5, 2.5), (1.25, 0.5, 1.0), 20.0),
        # one budget whose twists alone fill more than one pass
        ("S12", (1.0, 1.0), (1e-5, 1.0), 2.0),
        # leaves near 2^58 whose pass sum is past int64
        ("S11", (1.0,), (2.0**-45,), 4096.0),
        # no points, and radii at or below zero
        ("S11", (3.0,), (3.0,), 2.0),
        ("S20", (0.75, 1.5, 2.5), (1.25, 0.5, 1.0), 0.0),
        ("S04", (1.0,), (1.0,), -1.0),
    ],
)
def test_count_ball_matches_the_scalar_walk(name, ws, ls, L):
    _assert_ball_matches(name, ws, ls, L)


def test_count_ball_raises_where_int64_would_overflow():
    # floor(b / l) here is about 2e300, or 2^62: its count is not an int64,
    # and the scalar walk's twist loop would never end before the last cuff
    for ws, ls, masks in (((1.0,), (1e-300,), (0,)), ((1.0, 0.5), (1e-300, 1.0), (2, 2)),
                          ((1.0,), (2.0**-62,), (0,))):
        with pytest.raises(ArithmeticError, match="too large to count in int64"):
            _kernels.count_ball(ws, ls, masks, 1.0)
    # below the guard the count is exact: 2^55 + 1 twists at m = 0, and
    # m = 1 alone, less the zero point
    assert _kernels.count_ball((1.0,), (2.0**-55,), (0,), 1.0) == 2**55 + 1


def test_count_ball_raises_above_its_budget_before_walking():
    # prod(floor(L / w_i) + 1) bounds the m-vectors; above 10^8 the ball is
    # refused before its walk, which here would take seconds to minutes
    assert _kernels._BALL_ROWS == 10**8
    cases = [((1.0,), (1.0,), (0,), 1e8, "1e+08"),
             ((0.75, 1.5, 2.5), (1.25, 0.5, 1.0), (7, 7), 700.0, "1.226e+08")]
    for ws, ls, masks, L, rows in cases:
        start = time.perf_counter()
        with pytest.raises(ArithmeticError) as info:
            _kernels.count_ball(ws, ls, masks, L)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "a ball of radius %r may hold up to %s m-vectors, above the budget of 1e+08" % (L, rows))
    # balls inside the budget, such as S11 at L = 1e7 (10^7 + 1 rows) in
    # test_pure_kernel_basics, count as before


def test_count_ball_memory_does_not_grow_with_the_ball():
    # 2.2e8 points: each array pass holds at most 2^15 terms
    tracemalloc.start()
    try:
        count = _kernels.count_ball((0.75, 1.5, 2.5), (1.25, 0.5, 1.0), (7, 7), 64.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 223014023
    assert peak < 8 * 2**20, peak
