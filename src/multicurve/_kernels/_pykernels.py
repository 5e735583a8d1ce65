"""Pure-Python kernels: weighted lattice-ball counts and walks, and Fricke
trace trees.

ball_m_vectors is the one walk over a lattice ball: count_ball counts the
t-vectors of each m-vector in closed form, and dtlattice.enumerate_ball
lists them with ball_t_vectors, by the one membership rule stated below.

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


def _tcount(ls, zero_m, i, budget):
    # number of admissible t_(i..N-1) vectors with sum |t_j| l_j <= budget
    n = len(ls)
    if i == n:
        return 1
    k = math.floor(budget / ls[i])
    if k < 0:
        # budget - t*l for t = floor(budget/l) can round below zero
        return 0
    if i == n - 1:
        return k + 1 if zero_m[i] else 2 * k + 1
    total = _tcount(ls, zero_m, i + 1, budget)  # t_i = 0
    for t in range(1, k + 1):
        sub = _tcount(ls, zero_m, i + 1, budget - t * ls[i])
        total += sub if zero_m[i] else 2 * sub
    return total


def ball_t_vectors(ls, m, budget, i=0):
    """The t_(i..N-1) tuples that _tcount counts for this m and budget, in
    lexicographic order."""
    if i == len(ls):  # no cuffs
        yield ()
        return
    k = math.floor(budget / ls[i])
    # for k < 0 the range is empty, as _tcount has it
    ts = range(0 if m[i] == 0 else -k, k + 1)
    if i == len(ls) - 1:
        for t in ts:
            yield (t,)
        return
    for t in ts:
        for rest in ball_t_vectors(ls, m, budget - abs(t) * ls[i], i + 1):
            yield (t,) + rest


def _parity_ok(masks, m):
    for mask in masks:
        s = 0
        for b in range(len(m)):
            if mask >> b & 1:
                s += m[b]
        if s & 1:
            return False
    return True


def ball_m_vectors(ws, masks, L):
    """Parity-admissible m-vectors with m-cost <= L, as (m, L - cost) pairs
    in lexicographic order.  A NaN or infinite L raises ValueError here, at
    the call, not at the first item: an infinite one would never end."""
    if not math.isfinite(L):
        raise ValueError("ball radius must be finite, got %r" % (L,))
    return _m_vectors(ws, masks, L, 0, 0.0, [0] * len(ws))


def _m_vectors(ws, masks, L, i, cost, m):
    # the last cuff's loop yields directly, as a generator per cuff down to
    # each m-vector made count_ball slower
    if i == len(m):  # no cuffs: the zero vector alone
        yield (), L
        return
    w = ws[i]
    mi = 0
    if i == len(m) - 1:
        while cost + mi * w <= L:
            m[i] = mi
            if _parity_ok(masks, m):
                yield tuple(m), L - (cost + mi * w)
            mi += 1
    else:
        while cost + mi * w <= L:
            m[i] = mi
            yield from _m_vectors(ws, masks, L, i + 1, cost + mi * w, m)
            mi += 1


def count_ball(ws, ls, masks, L):
    """Lattice points in the weighted ball, zero excluded: 0 for L <= 0,
    ValueError for a NaN or infinite L."""
    m_vectors = ball_m_vectors(ws, masks, L)
    if L <= 0:
        return 0
    total = 0
    for m, budget in m_vectors:
        total += _tcount(ls, [mi == 0 for mi in m], 0, budget)
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
