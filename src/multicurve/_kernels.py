"""The counting kernels, in pure Python: weighted lattice-ball counts and
walks, and Fricke trace-tree walks.  This one module is the kernel backend;
BACKEND names it, and multicurve.kernel_backend reads it.

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
below 2 a length is undefined.  count_upto, count_multi and slopes_upto
raise it too when a trace inside the walk falls there, as it can off the
cusp identity.

slopes_upto lists each slope p/q as a (trace, q, p) triple, so that a plain
sort orders the spectrum by trace, ties by q then p.  It walks from the
roots with the pruning rule, and lists the two spines below a node above
both its ends and the gate G in two tight loops, as _close counts them.

count_upto and count_multi share one walk in two phases.  Phase 1 applies
the pruning rule from the roots until an edge's mediant exceeds both its
ends; below such an edge every trace the walk meets is <= the bound, so
phase 2 tests a child against the bound alone.  It closes each child above
the gate max(T_2, G) where the child is made, counting it and the two
spines below it (a fixed end, and s' = t*s - s_prev) in two tight loops
instead of stacking it.  G, from _gate, is the root of c*c - c = tmax with
a relative margin of 2^-40.

The gate rests on two facts about float traces.  Rounding is monotone, so
from s_prev <= s and a fixed end t > 2 it follows that
fl(fl(t*s) - s_prev) >= fl(2s - s_prev) >= s: a spine never decreases, and
in phase 2 every child is at least both its ends.  And for every float
c > G, fl(fl(c*c) - c) > tmax, which _gate proves with the rounding of
each operation and of G itself.  So below a child c > G each spine trace
is at least c and each end at most c, each cross grandchild, a spine trace
times its predecessor less an end, is at least fl(fl(c*c) - c) and so
above tmax, and each spine stops at its first trace above tmax: the child
and its spines are the nodes the walk would meet below it, and each has
one multiple, as it lies above T_2.  _close has the measurements.

Every end of a node in phase 2, or at slopes_upto's spine test, is above
2, so no test checks it: a root, checked by _check_roots; a trace the walk
counted or listed, which raises in _mult or slopes_upto if it is at most
2; a trace no smaller than a phase-2 spine's first; or, in slopes_upto, a
trace above tmax >= 2.

count_multi counts the multiples k*gamma with k*length(gamma) <= L by the
test count_upto(L/k) makes: a slope of trace t has max{k >= 1 : t <= T_k}
of them, with T_k = 2*cosh((L/k)/2) computed as count_upto(L/k) computes
its bound.  So count_multi(x, y, z, L) is the sum over k of
count_upto(x, y, z, L/k) bit for bit, and count_b(X, L) is the sum of
count_s(X, k, L), as the definition of B(X) has it.  The walks add 1 at
a trace above T_2 and 2 at one above T_3, inline; every other trace reads
k from a table of thresholds kept per radius by one bisection, and past
the table from _mult's search.  count_upto runs the same code with both
cuts at 2.0, so a trace at or below 2, which has no length, reaches _mult
and raises.

A thin walk is one where x or y is shorter than L/1024 and the spines of
that short root hold at least 64 traces <= tmax; by the collar lemma at
most one root is that short.  It runs those spines and their side subtrees
in arrays, and tallies both numbers at once: the slope count and the sum
of multiples.  The last pair is kept, so count_upto and count_multi
called at one (x, y, z, L), as `torus count` calls them, walk once in
either order.  Phase 1 tallies both numbers in its one pass.  A spine
s' = t*s - s_prev with fixed end t is iterated in a tight loop and
recorded in segments of at most 4096 traces; each segment is tallied as
one array, and its side children are one array expression
s[1:]*s[:-1] - t, kept where <= tmax.  The side children then walk their
own left spines in lockstep, as float64 arrays of at most 4096 lanes:
count the lanes, emit the right children that are <= tmax as the next
generation, step, and drop the lanes above tmax.  A lane set under 64
goes back to the scalar stack without numpy's set-up.  Once a spine
passes the gate max(T_2, G), its later side children are above tmax, and
a loop that only steps and compares counts it without recording it.  Every
trace comes from the same IEEE operation on the same operands as in the
scalar loop, and a child is dropped exactly when the scalar loop drops it,
so the nodes counted are the scalar walk's.  count_multi reads each
trace's k from the thresholds T_K..T_1 in one ascending array by
searchsorted, and from _mult at a trace at or below T_K: both paths share
the one rule, and no vector acosh enters.  Every other walk runs the
scalar loop alone, with the thresholds of the number asked for, and keeps
nothing.

numpy is imported inside the functions that build arrays, not with the
module: importing it takes about 0.11 s, more than the 0.09 s in which a
fresh interpreter imports the command line, and most commands never reach
an array.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left

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
# count_ball's budget: the m-vectors a ball may hold, bounded before the
# walk by prod(floor(L / w_i) + 1).  A walk that size takes about 6 s on
# 2 shared vCPUs (S11 at L = 1e7, 10^7 rows, took 0.61 s); the largest ball
# the README, verify or the benchmark counts has 16,001 rows (S11 and S04
# at L = 16,000).
_BALL_ROWS = 10**8


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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    cost, start, count, nz = (np.array(col) for col in zip(*pieces))
    rows = np.arange(int(count.sum()))
    ms = np.repeat(start - step * (np.cumsum(count) - count), count) + step * rows
    b = L - (np.repeat(cost, count) + ms * w)
    nz = np.repeat(nz, count) | (ms != 0) << (len(ls) - 1)
    return _tcounts(ls, b, np.ones(len(b), np.int64), nz)


def count_ball(ws, ls, masks, L):
    """Lattice points in the weighted ball, zero excluded: 0 for L <= 0,
    ValueError for a NaN or infinite L, ArithmeticError where the ball's
    m-vectors may number more than _BALL_ROWS or a twist bound is too large
    for int64."""
    _check_radius(L)
    if L <= 0 or not ws:
        return 0
    bound = math.prod(L // w + 1.0 for w in ws)
    if bound > _BALL_ROWS:
        raise ArithmeticError(
            "a ball of radius %r may hold up to %.4g m-vectors, above the budget of %.4g"
            % (L, bound, _BALL_ROWS))
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
        # the negative tree is the positive one from the roots (x, y, xy - z)
        z, p = x * y - z, -p
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


def _gate(tmax):
    """G = (1 + sqrt(1 + 4*tmax))/2 * (1 + 2^-40): the root of
    c*c - c = tmax with a relative margin, formed so that it cannot
    overflow.  For every float c > G, fl(fl(c*c) - c) > tmax.

    Proof, with u = 2^-53 and G0 the exact root, G0 >= 2 as tmax >= 2.
    For x >= 0, fl(x) >= x*(1 - u).  Each of the four roundings that form
    G loses at most that factor, so G >= G0*(1 + 2^-40)*(1 - u)^4, above
    G0*(1 + e) with e = 2^-41, and so is c.  If fl(c*c) passes the float
    range it is inf, and inf - c is above tmax.  Else
    fl(fl(c*c) - c) >= (c*c*(1 - u) - c)*(1 - u), and c*c*(1 - u) - c
    increases with c > 1.  At c = G0*(1 + e) it is
    tmax + e*(2*G0^2 - G0) + e^2*G0^2 - u*c^2 >= tmax + G0^2*(1.5e - 1.01u),
    as 2*G0^2 - G0 >= 1.5*G0^2.  And tmax/(1 - u) < tmax + 1.01u*G0^2, as
    tmax < G0^2; 1.5e > 2.02u leaves a margin of 2^11."""
    return (0.5 + math.sqrt(0.25 + tmax)) * (1.0 + 2.0**-40)


def _threshold(L, k):
    """T_k = 2*cosh((L/k)/2), the trace bound of count_upto(L/k): a slope
    of trace t has a k-th multiple of length <= L exactly where t <= T_k,
    the test count_s(X, k, L) makes."""
    return 2.0 * math.cosh(L / k / 2.0)


# Thresholds kept per radius: _mult reads a multiplicity below _TABLE from
# them by one bisection.  Building 32 takes about 4 us, while a Bers-box
# walk at L = 80 meets few traces with more than 32 multiples.
_TABLE = 32


@functools.lru_cache(maxsize=16)
def _thresholds(L):
    """(T_K, ..., T_2, T_1) with K = _TABLE, ascending: count_multi's cuts
    T_2 and T_3 and the table _mult reads."""
    return tuple(_threshold(L, k) for k in range(_TABLE, 0, -1))


# count_upto's thresholds: every cut at 2.0, so a trace above 2 adds 1 and
# one at or below 2, fallen, reaches _mult and raises there.  Its T_1 is
# never read; every walk bounds its traces by tmax.
_UPTO = (2.0, 2.0, 2.0)


def _mult(t, L, th):
    """max{k >= 1 : t <= T_k}, the number of multiples of length <= L of a
    slope of trace t <= T_1, read from the ascending thresholds th.

    T_k does not increase with k, so below len(th) one bisection reads k.
    Past the table the float quotient L / length(t) is the start and a
    galloping search over T_k corrects it, as near t = 2 the quotient loses
    its accuracy: at ell = 3e-8 it is off by about 9e7.  A trace at or below
    2 makes the quotient raise ZeroDivisionError or ValueError."""
    top = len(th)
    k = top - bisect_left(th, t)
    if k < top:
        return k
    k = max(top, math.floor(L / (2.0 * math.acosh(t / 2.0))))
    # gallop to lo < hi with t <= T_lo and t > T_hi; t <= T_top holds
    step = 1
    if t <= _threshold(L, k):
        lo, hi = k, k + 1
        while t <= _threshold(L, hi):
            lo, hi, step = hi, hi + 2 * step, 2 * step
    else:
        lo, hi = k - 1, k
        while not t <= _threshold(L, lo):
            lo, hi, step = max(top, lo - 2 * step), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if t <= _threshold(L, mid):
            lo = mid
        else:
            hi = mid
    return lo


# Thin walks: where a root trace x or y is below 2*cosh(L / (2*_SHORT)),
# the trace of length L/_SHORT, the spines whose fixed end it is take the
# array path.  By the collar lemma at most one curve of a punctured torus
# is that short.  On point-queries (seed 1501) the 640 count walks took
# 0.425, 0.418, 0.408 and 0.426 s at L/256, L/512, L/1024 and L/2048; at
# L/256 walks with ell between L/1024 and L/256 ran up to 1.5x slower
# (ell = 0.03, L = 20: 0.111 -> 0.162 ms), as spines that short pay the
# array set-up.  At L/1024 moduli-mc's Bers-box walks at L <= 80 stay on
# the scalar loop but for the ~0.2% of samples with ell < L/1024.
_SHORT = 1024
# Most traces of one recorded spine segment, and most lanes of one lockstep
# array, so that memory does not grow with the walk.  A process running
# point-queries' 640 count walks (seed 1501) peaked at 29.9 MB resident,
# against 31.2 MB with the scalar loop alone and 34.8 MB with unbounded
# segments and lane sets.  On its 108 thin walks 1024 ran 6% slower than
# 4096 and 2048-8192 within 3% of it, while the heaviest walk's
# tracemalloc peak doubles with each doubling: 716 KB at 4096.
_SEGMENT = 4096
# Fewest lanes a lockstep step runs on; a smaller lane set goes back to
# the scalar stack.  A walk whose short root's spines hold fewer traces
# <= tmax is not thin.  On point-queries' thin walks 16, 32 and 64 lanes
# ran within 1.3% of each other, 128 and 256 2% and 4% slower than 64.
_LANES = 64


def _phase1(x, y, z, L, tmax, th):
    """(count, n, grow) for phase 1 of a walk: count is the number of the
    roots x, y and the nodes phase 1 visits with trace <= tmax, n sums
    their multiples by the thresholds th, and grow lists the phase-2 edges
    (t_left, t_right, t_mediant) it stops at.  Under _UPTO n is count."""
    t2, t3 = th[-2], th[-3]
    count = n = 0
    for t in (x, y):
        if t <= tmax:
            count += 1
            n += 1 if t > t2 else 2 if t > t3 else _mult(t, L, th)
    grow = []
    for zroot in (z, x * y - z):
        if zroot > tmax and zroot > x and zroot > y:
            continue
        # the walk descends into the left child and stacks the right one
        stack = [(x, y, zroot)]
        pop, push = stack.pop, stack.append
        while stack:
            tl, tr, tm = pop()
            while True:
                if tm > tl and tm > tr:
                    grow.append((tl, tr, tm))
                    break
                if tm <= tmax:
                    count += 1
                    n += 1 if tm > t2 else 2 if tm > t3 else _mult(tm, L, th)
                c = tm * tr - tl
                if c <= tmax or not (c > tm and c > tr):
                    push((tm, tr, c))
                c = tl * tm - tr
                if c <= tmax or not (c > tl and c > tm):
                    tr, tm = tm, c
                else:
                    break
    return count, n, grow


@functools.lru_cache(maxsize=1)
def _thin_walk(x, y, z, L):
    """(count_upto, count_multi) for a thin walk (see _count): the number
    of slopes with trace <= tmax and the sum of their multiples.  The last
    pair is kept, so the two kernels called at one (x, y, z, L) walk once,
    in either order; an error is raised again on every call, never kept.

    The phase-2 edges whose fixed end is the short root t, the shorter of
    x and y (left end x, else right end y), are walked by _spine in arrays.
    Their subtrees hold the root's two spines (slopes 1/k and -1/k for x,
    k/1 and -k/1 for y) and the side subtrees hanging off them: nearly all
    of a thin walk.  The array path makes every trace by the same IEEE
    operation on the same operands as the scalar loop (a*b and b*a are the
    same float) and drops a child exactly when the scalar loop does, when
    it is above tmax; so it counts the same set of nodes, only in another
    order, and each with the multiples the scalar loop gives it.  Which
    edges take the array path decides only the speed.  What the scalar
    loop walks, the subtrees below the other phase-2 edges and small lane
    sets, _close walks once for both numbers, as phase 1 walks its few
    nodes."""
    tmax = _trace_bound(L)
    th = _thresholds(L)
    count, total, grow = _phase1(x, y, z, L, tmax, th)
    t, end = (x, 0) if x <= y else (y, 1)
    n, m = _close([edge for edge in grow if edge[end] != t], L, tmax, th)
    count, total = count + n, total + m
    for edge in grow:
        if edge[end] == t:
            n, m = _spine(t, edge[1 - end], edge[2], L, tmax, th)
            count, total = count + n, total + m
    return count, total


def _close(grow, L, tmax, th):
    """(number, sum of multiples) over the nodes of the subtrees below the
    phase-2 edges on the stack grow, by the thresholds th; grow ends empty.
    Under _UPTO every node adds 1 and the two numbers are equal.

    A node costs one add, as in a loop that tallies one number: the count
    takes it, and the sum keeps only the multiples' excess over 1, which is
    0 above T_2.  A trace in (T_K, T_3] reads its multiples from the table
    by the bisection _mult makes, in line: on 150 Bers-box points at
    L = 20 to 80 the call to _mult cost 5-7% of count_multi's time.
    Replaying the count walks of one moduli-mc pass (seed 1501, 2 shared
    x86-64 vCPUs), this loop ran 1-2.5% slower than a loop tallying the sum
    alone, and one with a second add per node for the count 12-13% slower.

    Each node taken is counted and makes its two children; a child above
    tmax is dropped, and the rest are closed where they are made, or else
    the right one is stacked and the left one taken next.  A child
    (tl, tr, tm) is closed when tm is above gate = max(T_2, G), G from
    _gate.  It then roots two spines and nothing else: s' = tl*s - s_prev
    down the left from (s_prev, s) = (tm, tl*tm - tr), and s' = s*tr - s_prev
    down the right from (tm, tm*tr - tl).  The proof is in the module
    docstring: every phase-2 child is at least both its ends, so the spines
    never decrease from tm, and every cross grandchild below them is at
    least fl(fl(tm*tm) - tm) > tmax.  So the child and its spines are
    counted in place, each spine to its first trace above tmax, and they
    are the nodes the walk would meet below it.  A child in the band
    (sqrt(tmax), G], whose cross grandchildren may fall <= tmax, is walked
    as any other.

    Every closed trace is at least the child's tm, above the gate and so
    above T_2: each adds 1 and takes no threshold test, and the nodes
    counted, and the multiples of each, are those of a walk that closes
    nothing.  G exceeds T_2 = sqrt(tmax + 2) wherever tmax > 2, but only in
    exact arithmetic; the T_2 term makes the closed child's one multiple a
    float comparison.  An edge taken from grow is never closed itself, only
    its children are; the walk through it is the same.

    On one moduli-mc pass (seed 1, 2 shared x86-64 vCPUs) the 4,147 calls
    closed 969,464 children; half of their 1.94 million spines were empty,
    and 48 children fell in the band.  Replaying those calls in 11
    interleaved rounds, the loop with the gate alone took a median 0.84x the
    time of one that also tested each child's ends and cross grandchildren
    against tmax."""
    t2, t3, least = th[-2], th[-3], th[0]
    last = len(th) - 1
    count = n = 0
    gate = max(t2, _gate(tmax))
    pop, push = grow.pop, grow.append
    while grow:
        tl, tr, tm = pop()
        while True:
            count += 1
            if tm <= t2:
                if tm > t3:
                    n += 1
                elif tm > least:
                    n += last - bisect_left(th, tm)
                else:
                    n += _mult(tm, L, th) - 1
            c = tm * tr - tl
            if c <= tmax:
                # the right child (tm, tr, c)
                if c > gate:
                    count += 1
                    a, s = c, tm * c - tr
                    while s <= tmax:
                        count += 1
                        a, s = s, tm * s - a
                    a, s = c, c * tr - tm
                    while s <= tmax:
                        count += 1
                        a, s = s, s * tr - a
                else:
                    push((tm, tr, c))
            c = tl * tm - tr
            if not c <= tmax:
                break
            # the left child (tl, tm, c)
            if c > gate:
                count += 1
                a, s = c, tl * c - tm
                while s <= tmax:
                    count += 1
                    a, s = s, tl * s - a
                a, s = c, c * tm - tl
                while s <= tmax:
                    count += 1
                    a, s = s, s * tm - a
                break
            tr, tm = tm, c
    return count, count + n


def _floors(L, s, th):
    """The thresholds T_K, ..., T_1 as an ascending array, with K the
    multiples of s, the first trace of a spine.  Every trace t the array
    path tallies from there on lies in [s, tmax]: the spine never
    decreases and its side subtrees lie above it (see the module
    docstring).  So t has from 1 to K multiples, K less the number of
    thresholds below t, which np.searchsorted(floors, t) reads."""
    import numpy as np

    return np.array([_threshold(L, k) for k in range(_mult(s, L, th), 0, -1)])


def _tally(t, floors):
    """(number, sum of multiples) over the traces t, read from floors."""
    return len(t), len(floors) * len(t) - int(floors.searchsorted(t).sum())


def _climb(t, a, s, tmax):
    """Number of traces of the spine s' = t*s - a from s to its last trace
    <= tmax, for a spine whose side children are all above tmax.

    _spine calls it only with a above its cut max(T_2, G), G from _gate,
    and s >= a.  The spine never decreases (see the module docstring), so
    each trace counted is above T_2 and has one multiple.  The loop makes
    four steps to a pass and compares the fourth trace alone: if it is
    <= tmax, so are the three before it."""
    top = math.nextafter(tmax, math.inf)  # for floats s, s < top iff s <= tmax
    count = 0
    while True:
        s1 = t * s - a
        s2 = t * s1 - s
        s3 = t * s2 - s1
        if not s3 < top:
            break
        a, s = s3, t * s3 - s2
        count += 4
    while s < top:
        count += 1
        a, s = s, t * s - a
    return count


def _spine(t, a, s, L, tmax, th):
    """(number, sum of multiples) over the subtree below the phase-2 edge
    (t, a, s) or (a, t, s), whose fixed end is the short trace t, as _close
    would count it.

    The spine s' = t*s - s_prev is iterated in a tight loop and recorded in
    segments of at most _SEGMENT traces, each segment keeping its
    predecessor in front.  A spine node (t, a_i, s_i) has the side child
    (s_i, a_i, s_i*a_i - t) on the right, a node (a_i, t, s_i) the side
    child (a_i, s_i, a_i*s_i - t) on the left: for a segment the traces are
    one array expression s[1:]*s[:-1] - t.  The subtrees below (l, r, m)
    and (r, l, m) are mirror images with the same traces (l*m = m*l), so
    either spine hands its side children to _lockstep as (s_i, a_i, c).
    Side children above tmax are dropped, and the rest expanded before the
    next segment is recorded.  Every segment is tallied as one array, from
    the thresholds _floors builds once per spine, at its first recorded
    trace.

    Recording stops at the first trace past cut = max(T_2, G), G from
    _gate, and _climb counts the rest of the spine, whose predecessor a is
    then above cut.  With t > 2 and a < s, as at every phase-2 edge, the
    spine never decreases (see the module docstring), so from there on
    s >= a > G.  And t < G, as t is below the trace of L/_SHORT, whose
    c*c - c is below tmax; so t < a.  Every later side child is then
    fl(fl(s*a) - t) >= fl(fl(a*a) - a), which _gate's proof puts above
    tmax, and every trace _climb counts is above T_2.  Where cut is tmax
    the spine is recorded to its end."""
    cut = min(tmax, max(th[-2], _gate(tmax)))
    count = total = 0
    floors = None
    while True:
        # s <= tmax is the next spine node and a its predecessor
        if a > cut:
            n = _climb(t, a, s, tmax)
            return count + n, total + n
        seg = [a, s]
        app = seg.append
        # two steps to a loop pass
        for _ in range(_SEGMENT // 2 - 1):
            a = t * s - a
            if not a <= cut:
                a, s = s, a
                break
            app(a)
            s = t * a - s
            if not s <= cut:
                break
            app(s)
        else:
            a, s = s, t * s - a
        if cut < s <= tmax:
            # one trace past cut in this segment, so the next pass climbs
            app(s)
            a, s = s, t * s - a
        import numpy as np

        if floors is None:
            floors = _floors(L, seg[1], th)
        # past L = 709 a product of two traces can overflow: it is inf and
        # dropped, as in the scalar loop, which does not warn
        with np.errstate(over="ignore"):
            trace = np.fromiter(seg, np.float64, len(seg))
            spine, prev = trace[1:], trace[:-1]
            n, m = _tally(spine, floors)
            side = spine * prev - t
            keep = side <= tmax
            n2, m2 = _lockstep(spine[keep], prev[keep], side[keep], L, tmax, th, floors)
        count, total = count + n + n2, total + m + m2
        if not s <= tmax:
            return count, total


def _lockstep(tl, tr, tm, L, tmax, th, floors):
    """(number, sum of multiples) over the subtrees below the edges
    (tl[i], tr[i], tm[i]), all with tm <= tmax, as _close would count them.

    The lanes walk their left spines in lockstep: each step counts tm,
    emits the right children tm*tr - tl that are <= tmax as the next
    generation, steps tm to tl*tm - tr and drops the lanes above tmax.  A
    lane set under _LANES lanes goes to the scalar stack unchanged, and the
    next generation is expanded the same way in sets of at most _SEGMENT
    lanes."""
    import numpy as np

    count = total = 0
    small = []
    pending = [(tl, tr, tm)]
    while pending:
        tl, tr, tm = pending.pop()
        kids = []
        while len(tm) >= _LANES:
            n, m = _tally(tm, floors)
            count, total = count + n, total + m
            c = tm * tr - tl
            keep = c <= tmax
            kids.append((tm[keep], tr[keep], c[keep]))
            tr, tm = tm, tl * tm - tr
            keep = tm <= tmax
            tl, tr, tm = tl[keep], tr[keep], tm[keep]
        small += zip(tl.tolist(), tr.tolist(), tm.tolist())
        if kids:
            tl, tr, tm = (np.concatenate(col) for col in zip(*kids))
            for i in range(0, len(tm), _SEGMENT):
                pending.append((tl[i:i + _SEGMENT], tr[i:i + _SEGMENT], tm[i:i + _SEGMENT]))
    n, m = _close(small, L, tmax, th)
    return count + n, total + m


def slopes_upto(x, y, z, L):
    """All slopes p/q with length <= L as (trace, q, p) triples, sorted: by
    trace, ties by q then p.

    The walk keeps the kernels' pruning rule, descends into the left child
    and stacks the right one.  The negative tree starts from the right root
    -1/0, so its mediants carry their sign.  A node (tl, tr, tm) above both
    its ends and above the gate G of _gate roots two spines, and the walk
    would prune every other node below it, by the argument of the module
    docstring: its spines never fall below tm, and the cross grandchildren
    beside them lie above tmax and above both their ends.  With no phase
    split the walk tests the ends, when it takes the node rather than when
    it makes it, and with no multiples read the gate needs no T_2 term.
    Both spines are listed in two tight loops: down the left the label
    advances by the left end's (pl, ql), down the right by the right end's
    (pr, qr).  Such a node's ends are below its trace, so it passed the
    pruning rule by that trace being <= tmax, as every node _close meets
    does.  Spine traces start from ends above 2 and never decrease; any
    other listed trace that is not above 2, as one off the cusp identity
    can be, raises ArithmeticError."""
    _check_roots(x, y, z)
    tmax = _trace_bound(L)
    gate = _gate(tmax)
    out = [(t, q, p) for t, q, p in ((x, 1, 0), (y, 0, 1)) if t <= tmax]
    app = out.append
    # the right root is 1/0 for the positive tree and -1/0 for the negative
    for right, zroot in ((1, z), (-1, x * y - z)):
        if zroot > tmax and zroot > x and zroot > y:
            continue
        # entries: (pl, ql, tl, pr, qr, tr, tm) for the edge whose mediant,
        # of trace tm, survived the pruning test
        stack = [(0, 1, x, right, 0, y, zroot)]
        pop, push = stack.pop, stack.append
        while stack:
            pl, ql, tl, pr, qr, tr, tm = pop()
            while True:
                pm, qm = pl + pr, ql + qr
                if tm <= tmax:
                    if not tm > 2.0:
                        raise _fallen(x, y, z, L)
                    app((tm, qm, pm))
                cr = tm * tr - tl
                cl = tl * tm - tr
                if tm > gate and tl < tm and tr < tm:
                    a, s, p, q = tm, cl, pm + pl, qm + ql
                    while s <= tmax:
                        app((s, q, p))
                        a, s, p, q = s, tl * s - a, p + pl, q + ql
                    a, s, p, q = tm, cr, pm + pr, qm + qr
                    while s <= tmax:
                        app((s, q, p))
                        a, s, p, q = s, s * tr - a, p + pr, q + qr
                    break
                if cr <= tmax or not (cr > tm and cr > tr):
                    push((pm, qm, tm, pr, qr, tr, cr))
                if cl <= tmax or not (cl > tl and cl > tm):
                    pr, qr, tr, tm = pm, qm, tm, cl
                else:
                    break
    out.sort()
    return out


def _fallen(x, y, z, L):
    return ArithmeticError(
        "a trace inside the walk from x=%r y=%r z=%r at L=%r is at most 2 or not finite"
        % (x, y, z, L))


def _count(x, y, z, L, multi):
    """Sum over slopes with trace <= tmax = 2*cosh(L/2) of their multiples,
    max{k : t <= T_k}, when multi is true, else their number, from checked
    roots and bound.

    Phase 1 walks from the roots with the kernels' pruning rule until an
    edge's mediant exceeds both its ends.  That edge was visited, so all
    three of its traces are <= tmax, and it goes to the phase-2 stack.  In
    its subtree every visited node keeps both ends <= tmax, so a child c
    above tmax is above both its ends: the rule reduces to c <= tmax, and
    every node visited is counted.  Phase 2 runs in _close, the scalar
    loop.  Both phases run with the thresholds of the number asked for,
    and their sums are read: under count_upto's _UPTO the sum is the count.

    A thin walk runs in _thin_walk instead, which tallies both numbers at
    once and keeps the last pair; it is looked up only once both checks
    pass, so a bad input raises on every call.  A walk is thin where its
    short root t, the shorter of x and y, is shorter than L/_SHORT and the
    spines whose fixed end t is hold at least _LANES traces <= tmax.  A
    spine s_k = A*lam^k + B*lam^-k with lam + 1/lam = t lies near
    m*cosh(j*acosh(t/2)) at j steps from its least trace m, which is among
    the other root and the mediant roots z and x*y - z wherever the triple
    is reduced, as in the Bers box.  A shorter spine has m*m - t > tmax,
    as t is shorter than L/_SHORT, so no side child <= tmax, and the scalar
    loop counts it faster than the pair tally and the array set-up would;
    the test decides only the speed.  Walks with no short root never leave
    the scalar loop, and never reach the kept pair.

    Off the cusp identity a trace inside the walk can fall to 2 or below
    even when the roots pass the check.  Such a trace is at or below every
    cut, under _UPTO too, so _mult takes it, and its acosh raises
    ValueError below 2 or its quotient ZeroDivisionError at 2; either is
    raised again as ArithmeticError.  One handler around the whole walk
    costs no node anything."""
    _check_roots(x, y, z)
    tmax = _trace_bound(L)
    try:
        short = 2.0 * math.cosh(L / (2.0 * _SHORT))
        if x < short or y < short:
            t, u = (x, y) if x <= y else (y, x)
            m = min(u, z, x * y - z)
            # m > tmax: no spine trace at all, and no acosh spent to see it
            if m <= tmax and m * math.cosh(_LANES * math.acosh(t / 2.0)) <= tmax:
                count, total = _thin_walk(x, y, z, L)
                return total if multi else count
        th = _thresholds(L) if multi else _UPTO
        _, n, grow = _phase1(x, y, z, L, tmax, th)
        return n + _close(grow, L, tmax, th)[1]
    except (ValueError, ZeroDivisionError) as err:
        raise _fallen(x, y, z, L) from err


def count_upto(x, y, z, L):
    """Number of slopes with length <= L.  A thin walk (see _count)
    tallies count_multi with it and keeps the pair, so count_multi at the
    same arguments next does not walk again."""
    return _count(x, y, z, L, False)


def count_multi(x, y, z, L):
    """Number of integer multiples k*gamma of slopes gamma with
    k*length(gamma) <= L, decided as count_upto(L/k) decides it: a slope
    of trace t has max{k : t <= 2*cosh((L/k)/2)} of them, so this is the
    sum over k of count_upto(x, y, z, L/k).  A thin walk (see _count)
    tallies count_upto with it and keeps the pair, so count_upto at the
    same arguments next does not walk again."""
    return _count(x, y, z, L, True)
