"""Pure-Python kernels: weighted lattice-ball counts and walks, and Fricke
trace trees.

ball_m_vectors is the one walk over a lattice ball: count_ball counts the
t-vectors of each m-vector in closed form, and dtlattice.enumerate_ball
lists them with ball_t_vectors, by the one membership rule stated below.

The tree walks raise ArithmeticError at an infinite or NaN radius, which
would prune nothing.  count_multi evaluates floor(L / length) only near its
thresholds: a trace safely inside the band where that floor is 1 adds 1
without an acosh, and every other trace is rechecked with the exact formula.
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


def ball_m_vectors(ws, masks, L, i=0, cost=0.0, m=None):
    """Parity-admissible m-vectors with m-cost <= L, as (m, L - cost) pairs
    in lexicographic order.  The last cuff's loop yields directly, as a
    generator per cuff down to each m-vector made count_ball slower."""
    if m is None:
        m = [0] * len(ws)
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
            yield from ball_m_vectors(ws, masks, L, i + 1, cost + mi * w, m)
            mi += 1


def count_ball(ws, ls, masks, L):
    """Lattice points in the weighted ball, zero excluded."""
    if L <= 0:
        return 0
    total = 0
    for m, budget in ball_m_vectors(ws, masks, L):
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


# Relative width, in length, of the margin kept between the unit band of
# count_multi and the traces of lengths L/2 and L.  Nodes inside the margin
# take the exact floor(L / length) like every node outside the band.
_BAND_MARGIN = 1e-6


def _unit_band(L):
    """Open trace interval (lo, hi) on which floor(L / (2*acosh(t/2))) is 1.

    lo and hi are the traces of lengths L/2*(1 + m) and L*(1 - m).  Each is
    accepted only if the formula evaluated at it leaves a relative slack of
    1e-12 to the integers 2 and 1.  The exact quotient L/length(t) is
    decreasing in t and the evaluated one is within a few ulp of it, so
    every float t strictly between lo and hi evaluates to a quotient in
    [1, 2), whose floor is 1.  When the check fails (L tiny, zero or
    negative, where lo and hi round onto 2 or past each other) the band is
    empty and every node takes the exact formula."""
    lo = 2.0 * math.cosh(L / 4.0 * (1.0 + _BAND_MARGIN))
    hi = 2.0 * math.cosh(L / 2.0 * (1.0 - _BAND_MARGIN))
    if (
        2.0 < lo < hi
        and L / (2.0 * math.acosh(lo / 2.0)) <= 2.0 - 2e-12
        and L / (2.0 * math.acosh(hi / 2.0)) >= 1.0 + 1e-12
    ):
        return lo, hi
    return math.inf, -math.inf


def _count_walk(x, y, z, L, tmax, lo, hi):
    """Sum over slopes with trace <= tmax of floor(L / length), where every
    trace t with lo < t < hi adds 1 without evaluating its length."""
    acosh, floor = math.acosh, math.floor
    n = 0
    for t in (x, y):
        if t <= tmax:
            n += 1 if lo < t < hi else floor(L / (2.0 * acosh(t / 2.0)))
    for zroot in (z, x * y - z):
        if zroot > tmax and zroot > x and zroot > y:
            continue
        # (t_left, t_right, t_mediant) of surviving nodes not yet expanded;
        # the walk descends into the left child and stacks the right one
        stack = [(x, y, zroot)]
        pop, push = stack.pop, stack.append
        while stack:
            tl, tr, tm = pop()
            while True:
                if tm <= tmax:
                    if lo < tm < hi:
                        n += 1
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
    return n


def slopes_upto(x, y, z, L):
    """All slopes with length <= L as (p, q, trace) triples, sorted by
    (trace, q, p)."""
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
    return _count_walk(x, y, z, L, _trace_bound(L), -math.inf, math.inf)


def count_multi(x, y, z, L):
    """Number of integer multiples of slopes with total length <= L,
    i.e. sum over slopes of floor(L / length)."""
    tmax = _trace_bound(L)
    lo, hi = _unit_band(L)
    return _count_walk(x, y, z, L, tmax, lo, hi)
