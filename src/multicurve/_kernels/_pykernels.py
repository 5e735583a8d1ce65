"""Pure-Python kernels: weighted lattice-ball counts and walks, and Fricke
trace trees.

One walk serves enumeration and counting of a lattice ball.  _walk visits
the parity-admissible prefixes (m_1..m_(N-1)) and gives each one the
admissible m_N as a range(start, stop, step): stop by the same cost test
as every other cuff, step 2 when a parity mask holds cuff N, and the start
from the prefix's parity.  ball_m_vectors iterates those ranges, and
dtlattice.enumerate_ball lists the twists of each m-vector with
ball_t_vectors.  count_ball evaluates the same ranges as numpy arrays and
counts the twist vectors of every budget with _tcounts, by the same float
operations in the same order as the scalar rule below: numpy's + - * / and
floor are the correctly rounded IEEE operations Python's are, and the
integers involved convert to float exactly, so counts are bit for bit those
of a scalar walk.  A pass of numpy work holds at most _PASS_TERMS rows or
expanded terms whatever the radius, so memory stays bounded.  Integer sums
run in int64 within a pass and in Python ints across passes; a twist bound
floor(b / l_i) too large for int64 arithmetic raises ArithmeticError rather
than wrap.

At a NaN or infinite radius the lattice-ball kernels raise ValueError and
the tree walks raise ArithmeticError: such a ball never ends, and such a
trace bound would prune nothing.  The tree walks also raise ArithmeticError
when a root trace x or y, or a mediant root z or x*y - z, is at most 2 or
not finite: from a trace of 2 a spine s' = t*s - s_prev never grows, and
below 2 a length is undefined.

count_upto and count_multi share one walk in two phases.  Phase 1 applies
the pruning rule from the roots until an edge's mediant exceeds both its
ends; below such an edge every trace the walk meets is <= the bound, so
phase 2 tests a child against the bound alone and closes each node whose
subtree is two spines (a fixed end, and s' = t*s - s_prev) in two tight
loops.  Float rounding is monotone, so a spine from ends >= 2 never
decreases and the nodes it skips are exactly those the rule would prune;
_count_walk gives the argument.  count_multi evaluates floor(L / length)
only near its thresholds: a trace safely inside the band where that floor
is 1 adds 1, one inside the band where it is 2 adds 2, both without an
acosh, and every other trace takes the exact formula.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "pure"


# ---------------------------------------------------------------------------
# weighted L1 lattice balls in Dehn-Thurston coordinates
#
# Points (m, t) with m_i >= 0 integers, t_i integers, t_i >= 0 where m_i = 0,
# parity: for each region mask, sum of m_i over set bits must be even.
#
# One membership rule serves counting and enumeration.  The m-cost
# m_1 w_1 + ... + m_N w_N is summed left to right and must not exceed L.
# The budget left, b = L - cost, is then spent cuff by cuff: |t_i| runs up to
# floor(b / l_i) and leaves b - |t_i| l_i for the cuffs after i.  A budget
# that rounding has pushed below zero admits no point.  count_ball counts
# the nonzero points of this rule; ball_m_vectors and ball_t_vectors list
# them, in lexicographic order of (m_1..m_N), then of (t_1..t_N).
# ---------------------------------------------------------------------------

# Most rows (budgets) or expanded twist terms one numpy pass of count_ball
# holds, so that its memory does not grow with the radius.  With unbounded
# passes the closed-forms benchmark peaked at 58.5 MB against 50.6 MB for
# the scalar walk; at this size it peaks at 51.5 MB, no slower.
_PASS_TERMS = 1 << 15


def _check_radius(L):
    if not math.isfinite(L):
        raise ValueError("ball radius must be finite, got %r" % (L,))


def _stop(cost, w, L):
    """Number of m >= 0 with cost + m*w <= L.  The test is monotone in m
    (each rounding is), so the float quotient is corrected by the test
    itself."""
    if not cost <= L:
        return 0
    k = int((L - cost) / w)
    while cost + (k + 1) * w <= L:
        k += 1
    while cost + k * w > L:
        k -= 1
    return k + 1


def _walk(ws, masks, L):
    """(prefix, cost, ms) for each parity-admissible prefix m_1..m_(N-1)
    whose m-cost is <= L, in lexicographic order: cost sums the prefix's
    m_i w_i left to right, and ms is the range of admissible m_N.  Every
    range has the same step, 2 when a parity mask holds cuff N.  N >= 1."""
    last = len(ws) - 1
    w = ws[last]
    # per mask: its prefix cuffs, and whether it also holds cuff N
    rules = [([i for i in range(last) if mask >> i & 1], mask >> last & 1) for mask in masks]
    step = 2 if any(holds_last for _, holds_last in rules) else 1
    m = [0] * last

    def prefixes(i, cost):
        if i == last:
            yield cost
            return
        wi = ws[i]
        for mi in range(_stop(cost, wi, L)):
            m[i] = mi
            yield from prefixes(i + 1, cost + mi * wi)

    for cost in prefixes(0, 0.0):
        start = None  # the parity of m_N, once a mask holding cuff N fixes it
        for cuffs, holds_last in rules:
            odd = sum(m[i] for i in cuffs) & 1
            if not holds_last:
                if odd:
                    break
            elif start is None:
                start = odd
            elif start != odd:
                break
        else:
            yield tuple(m), cost, range(start or 0, _stop(cost, w, L), step)


def ball_t_vectors(ls, m, budget, i=0):
    """The t_(i..N-1) tuples of this m and budget under the membership rule,
    in lexicographic order."""
    if i == len(ls):  # no cuffs
        yield ()
        return
    k = math.floor(budget / ls[i])
    # for k < 0 the range is empty: the budget admits no point
    ts = range(0 if m[i] == 0 else -k, k + 1)
    if i == len(ls) - 1:
        for t in ts:
            yield (t,)
        return
    for t in ts:
        for rest in ball_t_vectors(ls, m, budget - abs(t) * ls[i], i + 1):
            yield (t,) + rest


def ball_m_vectors(ws, masks, L):
    """Parity-admissible m-vectors with m-cost <= L, as (m, L - cost) pairs
    in lexicographic order.  A NaN or infinite L raises ValueError here, at
    the call, not at the first item: an infinite one would never end."""
    _check_radius(L)
    if not ws:  # no cuffs: the zero vector alone
        return iter([((), L)])
    w = ws[-1]
    return ((prefix + (mn,), L - (cost + mn * w))
            for prefix, cost, ms in _walk(ws, masks, L) for mn in ms)


def _chunks(counts):
    """(rep, t) pairs covering t = 0..counts[r]-1 for every row r, at most
    _PASS_TERMS terms each: rep is the row of each term and t its twist."""
    small = np.flatnonzero(counts <= _PASS_TERMS)
    c = counts[small]
    cs = np.cumsum(c)  # at most _PASS_TERMS^2: no overflow
    start, base = 0, 0
    while start < len(cs):
        end = int(np.searchsorted(cs, base + _PASS_TERMS, "right"))
        ce = c[start:end]
        rep = np.repeat(small[start:end], ce)
        t = np.arange(len(rep)) - np.repeat(cs[start:end] - ce - base, ce)
        yield rep, t
        base, start = int(cs[end - 1]), end
    for r in np.flatnonzero(counts > _PASS_TERMS):
        for t0 in range(0, int(counts[r]), _PASS_TERMS):
            t = np.arange(t0, min(t0 + _PASS_TERMS, int(counts[r])))
            yield np.full(len(t), r), t


def _tcounts(ls, b, wt, nz, i=0):
    """Sum over rows of wt times the number of admissible t_(i+1..N) with
    sum |t_j| l_j <= b, the budgets b spent cuff by cuff as in the scalar
    rule.  Bit j of nz is set where m_(j+1) != 0, which doubles each nonzero
    t_(j+1).  Twists before the last are expanded, <= _PASS_TERMS terms at
    a time; the last takes its closed form k + 1 or 2k + 1."""
    n = len(ls)
    k = np.floor(b / ls[i])
    keep = k >= 0  # b - t*l for t = floor(b/l) can round below zero
    if not keep.all():
        k, b, wt, nz = k[keep], b[keep], wt[keep], nz[keep]
    if not len(k):
        return 0
    # below 2^(62 - n) a leaf count times its weight, at most
    # 2^(n-1) (2k + 1), is below 2^62
    if not k.max() < 2.0 ** (62 - n):
        raise ArithmeticError(
            "a twist bound floor(b / l) of %r is too large to count in int64" % (float(k.max()),))
    k = k.astype(np.int64)
    doubled = nz >> i & 1
    if i == n - 1:
        leaves = (k + 1 + k * doubled) * wt
        if float(leaves.max()) * len(leaves) < 2.0**63:
            return int(leaves.sum())
        return sum(leaves.tolist())  # Python ints: a pass sum past int64
    total = 0
    for rep, t in _chunks(k + 1):
        total += _tcounts(ls, b[rep] - t * ls[i], wt[rep] << ((t > 0) & doubled[rep]), nz[rep], i + 1)
    return total


def _count_rows(pieces, step, L, w, ls):
    """Twist-vector count of the m-vectors in pieces, (cost, start, count,
    nz) slices of a prefix's m_N range with the prefix's cost and nonzero
    bits, by _tcounts on the budgets L - (cost + m_N w)."""
    cost, start, count, nz = (np.array(col) for col in zip(*pieces))
    rows = np.arange(int(count.sum()))
    ms = np.repeat(start - step * (np.cumsum(count) - count), count) + step * rows
    b = L - (np.repeat(cost, count) + ms * w)
    nz = np.repeat(nz, count) | (ms != 0) << (len(ls) - 1)
    return _tcounts(ls, b, np.ones(len(b), np.int64), nz)


def count_ball(ws, ls, masks, L):
    """Lattice points in the weighted ball, zero excluded: 0 for L <= 0,
    ValueError for a NaN or infinite L, ArithmeticError where a twist bound
    is too large for int64."""
    _check_radius(L)
    if L <= 0 or not ws:
        return 0
    w = ws[-1]
    total = 0
    pieces, rows = [], 0
    for prefix, cost, ms in _walk(ws, masks, L):
        nz = sum(1 << i for i, mi in enumerate(prefix) if mi)
        start, left = ms.start, len(ms)
        while left:
            take = min(left, _PASS_TERMS - rows)
            pieces.append((cost, start, take, nz))
            rows += take
            left -= take
            start += take * ms.step
            if rows == _PASS_TERMS:
                total += _count_rows(pieces, ms.step, L, w, ls)
                pieces, rows = [], 0
    if pieces:
        total += _count_rows(pieces, ms.step, L, w, ls)
    return total - 1  # remove the zero point, always admissible and in the ball


# ---------------------------------------------------------------------------
# Fricke trace trees on the once-punctured torus
#
# Slopes p/q (gcd = 1) label simple closed curves; traces follow the tree
# recursion child = t_left * t_right - t_coparent from the root triangles
# (0/1, 1/0, 1/1) and (0/1, 1/0, -1/1).  Lengths are 2*acosh(trace/2).
#
# Pruning: once a child trace exceeds both parents, every deeper trace in
# that subtree is larger still (the recursion gives t_child > t_parent
# whenever the two frontier traces exceed the coparent), so a subtree is cut
# when its child trace exceeds both parents and the target bound.  The test
# is made before a child is pushed, so a pruned child costs no stack entry;
# the nodes visited are the same as when each popped node is tested.
# ---------------------------------------------------------------------------


def trace_of_slope(x, y, z, p, q):
    """Trace of the slope p/q curve given root traces (x, y, z)."""
    if q < 0:
        raise ValueError("slope denominator must be nonnegative")
    if p < 0:
        return trace_of_slope(x, y, x * y - z, -p, q)
    if (p, q) == (0, 1):
        return x
    if (p, q) == (1, 0):
        return y
    pl, ql, tl = 0, 1, x
    pr, qr, tr = 1, 0, y
    pm, qm, tm = 1, 1, z
    while (pm, qm) != (p, q):
        if p * qm < pm * q:  # target left of mediant
            tnew = tl * tm - tr
            pr, qr, tr = pm, qm, tm
            pm, qm, tm = pl + pr, ql + qr, tnew
        else:
            tnew = tm * tr - tl
            pl, ql, tl = pm, qm, tm
            pm, qm, tm = pl + pr, ql + qr, tnew
    return tm


def _check_roots(x, y, z):
    """Raise ArithmeticError unless the root traces x and y and the two
    mediant roots z and x*y - z all lie in (2, inf)."""
    w = x * y - z
    if not (2.0 < x < math.inf and 2.0 < y < math.inf
            and 2.0 < z < math.inf and 2.0 < w < math.inf):
        raise ArithmeticError(
            "root traces must lie in (2, inf), got x=%r y=%r z=%r xy-z=%r" % (x, y, z, w))


def _trace_bound(L):
    """tmax = 2*cosh(L/2), the trace of a curve of length L.

    A walk against an infinite or NaN bound prunes nothing and never ends,
    so such a bound raises instead (a finite L too large for cosh raises
    OverflowError from math.cosh itself).  With a bound that is not NaN,
    `t <= tmax` and `not t > tmax` agree for every t but NaN, which the
    walks below rely on when they test a child before pushing it."""
    tmax = 2.0 * math.cosh(L / 2.0)
    if not tmax < math.inf:
        raise ArithmeticError("trace bound 2*cosh(L/2) is not finite at L=%r" % (L,))
    return tmax


# Relative width, in length, of the margin kept between each band of
# count_multi and the traces of the lengths that bound it.  Nodes inside a
# margin take the exact floor(L / length) like every node outside the bands.
_BAND_MARGIN = 1e-6

_NO_BAND = (math.inf, -math.inf)


def _band(L, k):
    """Open trace interval (lo, hi) on which floor(L / (2*acosh(t/2))) is k.

    lo and hi are the traces of lengths L/(k+1)*(1 + m) and L/k*(1 - m).
    Each is accepted only if the formula evaluated at it leaves a relative
    slack of 1e-12 to the integers k+1 and k.  The exact quotient
    L/length(t) is decreasing in t and the evaluated one is within a few
    ulp of it, so every float t strictly between lo and hi evaluates to a
    quotient in [k, k+1), whose floor is k.  When the check fails (L tiny,
    zero or negative, where lo and hi round onto 2 or past each other) the
    band is empty and every node takes the exact formula."""
    lo = 2.0 * math.cosh(L / (2.0 * (k + 1)) * (1.0 + _BAND_MARGIN))
    hi = 2.0 * math.cosh(L / (2.0 * k) * (1.0 - _BAND_MARGIN))
    if (
        2.0 < lo < hi
        and L / (2.0 * math.acosh(lo / 2.0)) <= (k + 1) * (1.0 - 1e-12)
        and L / (2.0 * math.acosh(hi / 2.0)) >= k * (1.0 + 1e-12)
    ):
        return lo, hi
    return _NO_BAND


def _count_walk(x, y, z, L, tmax, band1, band2):
    """Sum over slopes with trace <= tmax of floor(L / length), where a
    trace strictly inside band1 adds 1 and one strictly inside band2 adds 2
    without evaluating its length.

    Phase 1 walks from the roots with the kernels' pruning rule until an
    edge's mediant exceeds both its ends.  That edge was visited, so all
    three of its traces are <= tmax, and it goes to the phase-2 stack.  In
    its subtree every visited node keeps both ends <= tmax, so a child c
    above tmax is above both its ends: the rule reduces to c <= tmax, and
    every node visited is counted.

    Phase 2 also closes spine pairs.  Take a node (tl, tr, tm) with tm above
    gate = max(lo1, sqrt(tmax)), both ends >= 2 and below tm, and both cross
    grandchildren (cl*tm - tl and tm*cr - tr, for its children cl and cr)
    above tmax.  It roots two spines and nothing else: s' = tl*s - s_prev
    down the left from (s_prev, s) = (tr, tm), and s' = s*tr - s_prev down
    the right from (tl, tm).  Float rounding is monotone, so from
    s_prev <= s and a fixed trace t >= 2 it follows that
    fl(fl(t*s) - s_prev) >= fl(2s - s_prev) >= s.  Hence the spines never
    decrease, each cross child further down is at least the first one and
    is pruned as the walk would prune it, and each spine stops at its first
    trace above tmax.  Spine traces are above lo1, so they take the band-1
    test s < hi1 alone.  The gate only spares the test at nodes that seldom
    pass it; exactness rests on the other conditions."""
    acosh, floor = math.acosh, math.floor
    lo, hi = band1
    lo2, hi2 = band2
    n = 0
    for t in (x, y):
        if t <= tmax:
            if lo < t < hi:
                n += 1
            elif lo2 < t < hi2:
                n += 2
            else:
                n += floor(L / (2.0 * acosh(t / 2.0)))
    # (t_left, t_right, t_mediant) of visited phase-2 nodes not yet expanded
    grow = []
    for zroot in (z, x * y - z):
        if zroot > tmax and zroot > x and zroot > y:
            continue
        # phase 1: the walk descends into the left child and stacks the
        # right one
        stack = [(x, y, zroot)]
        pop, push = stack.pop, stack.append
        while stack:
            tl, tr, tm = pop()
            while True:
                if tm > tl and tm > tr:
                    grow.append((tl, tr, tm))
                    break
                if tm <= tmax:
                    if lo < tm < hi:
                        n += 1
                    elif lo2 < tm < hi2:
                        n += 2
                    else:
                        n += floor(L / (2.0 * acosh(tm / 2.0)))
                c = tm * tr - tl
                if c <= tmax or not (c > tm and c > tr):
                    push((tm, tr, c))
                c = tl * tm - tr
                if c <= tmax or not (c > tl and c > tm):
                    tr, tm = tm, c
                else:
                    break
    gate = max(lo, math.sqrt(tmax))
    pop, push = grow.pop, grow.append
    while grow:
        tl, tr, tm = pop()
        while True:
            if tm > lo:
                n += 1 if tm < hi else floor(L / (2.0 * acosh(tm / 2.0)))
            elif lo2 < tm < hi2:
                n += 2
            else:
                n += floor(L / (2.0 * acosh(tm / 2.0)))
            cr = tm * tr - tl
            cl = tl * tm - tr
            if (
                tm > gate
                and 2.0 <= tl < tm
                and 2.0 <= tr < tm
                and cl * tm - tl > tmax
                and tm * cr - tr > tmax
            ):
                a, s = tm, cl
                while s <= tmax:
                    n += 1 if s < hi else floor(L / (2.0 * acosh(s / 2.0)))
                    a, s = s, tl * s - a
                a, s = tm, cr
                while s <= tmax:
                    n += 1 if s < hi else floor(L / (2.0 * acosh(s / 2.0)))
                    a, s = s, s * tr - a
                break
            if cr <= tmax:
                push((tm, tr, cr))
            if cl <= tmax:
                tr, tm = tm, cl
            else:
                break
    return n


def slopes_upto(x, y, z, L):
    """All slopes with length <= L as (p, q, trace) triples, sorted by
    (trace, q, p)."""
    _check_roots(x, y, z)
    tmax = _trace_bound(L)
    out = [(p, q, t) for p, q, t in ((0, 1, x), (1, 0, y)) if t <= tmax]
    for sign, zroot in ((1, z), (-1, x * y - z)):
        if zroot > tmax and zroot > x and zroot > y:
            continue
        # entries: (pl, ql, tl, pr, qr, tr, tm) for the edge whose mediant,
        # of trace tm, survived the pruning test
        stack = [(0, 1, x, 1, 0, y, zroot)]
        while stack:
            pl, ql, tl, pr, qr, tr, tm = stack.pop()
            pm, qm = pl + pr, ql + qr
            if tm <= tmax:
                out.append((sign * pm, qm, tm))
            c = tl * tm - tr
            if c <= tmax or not (c > tl and c > tm):
                stack.append((pl, ql, tl, pm, qm, tm, c))
            c = tm * tr - tl
            if c <= tmax or not (c > tm and c > tr):
                stack.append((pm, qm, tm, pr, qr, tr, c))
    out.sort(key=lambda s: (s[2], s[1], s[0]))
    return out


def count_upto(x, y, z, L):
    """Number of slopes with length <= L."""
    _check_roots(x, y, z)
    return _count_walk(x, y, z, L, _trace_bound(L), (-math.inf, math.inf), _NO_BAND)


def count_multi(x, y, z, L):
    """Number of integer multiples of slopes with total length <= L,
    i.e. sum over slopes of floor(L / length)."""
    _check_roots(x, y, z)
    tmax = _trace_bound(L)
    return _count_walk(x, y, z, L, tmax, _band(L, 1), _band(L, 2))
