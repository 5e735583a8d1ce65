"""An independent oracle for the torus kernels, in 60-digit decimal.

The root traces come from the Fenchel-Nielsen closed forms, xy - z
included, the other traces from the tree recursion and the lengths from
ln, all in decimal arithmetic; the slopes are walked plainly, without the
kernels' phases, spine loops or arrays.  Every input is a float pair
(ell, tau), read exactly as the binary number it is.

A kernel's float traces carry a rounding of a few units in their last
place, and a length read from a trace t by acosh loses that rounding
divided by t's slope dt/dlength = sinh(length/2): for the base curve at
ell = 1e-5 it is about 1e-5 of its length.  So each length is compared to
1e-12 relative plus that loss, and a count is checked only where no exact
length lies within 1e-9 relative, plus that loss, of one of its thresholds
L/k.  The inputs where the kernels are wrong today, the degenerate points
of ROADMAP item 3, are not here.
"""

import math
import random
from decimal import Context, Decimal

import pytest

from multicurve import _kernels
from multicurve.torus import (
    BERS_11,
    LENGTH_TIE_TOL,
    TorusPoint,
    enumerate_short_slopes,
    fn_to_triple,
    systole_slope,
)

CTX = Context(prec=60)
ONE, TWO = Decimal(1), Decimal(2)
# the rounding of a kernel trace, relative, as 16 units in the last place
TRACE_ULPS = 16 * 2.0**-53
THRESHOLD_REL = 1e-9
LENGTH_REL = 1e-12


def _cosh(a):
    e = CTX.exp(a)
    return CTX.divide(CTX.add(e, CTX.divide(ONE, e)), TWO)


def _sinh(a):
    e = CTX.exp(a)
    return CTX.divide(CTX.subtract(e, CTX.divide(ONE, e)), TWO)


def _roots(ell, tau):
    """x, y, z and xy - z of slopes 0/1, 1/0, 1/1 and -1/1, each from its
    closed form."""
    ell, tau = Decimal(ell), Decimal(tau)
    half = CTX.divide(ell, TWO)
    coth2 = CTX.multiply(TWO, CTX.divide(_cosh(half), _sinh(half)))
    x = CTX.multiply(TWO, _cosh(half))
    y = CTX.multiply(coth2, _cosh(CTX.divide(tau, TWO)))
    z = CTX.multiply(coth2, _cosh(CTX.divide(CTX.add(tau, ell), TWO)))
    w = CTX.multiply(coth2, _cosh(CTX.divide(CTX.subtract(tau, ell), TWO)))
    return x, y, z, w


def _length(t):
    h = CTX.divide(t, TWO)
    return CTX.multiply(TWO, CTX.ln(CTX.add(h, CTX.sqrt(CTX.subtract(CTX.multiply(h, h), ONE)))))


def oracle_spectrum(ell, tau, L):
    """{(p, q): length} for every slope of length <= L."""
    x, y, z, w = _roots(ell, tau)
    tmax = CTX.multiply(TWO, _cosh(CTX.divide(Decimal(L), TWO)))
    traces = {(p, q): t for (p, q), t in (((0, 1), x), ((1, 0), y)) if t <= tmax}
    for right, tm in ((1, z), (-1, w)):
        # (end a, its trace, end b, its trace, trace of their mediant)
        stack = [((0, 1), x, (right, 0), y, tm)]
        while stack:
            a, ta, b, tb, tm = stack.pop()
            if tm > tmax and tm > ta and tm > tb:
                continue  # every trace below exceeds tm (Bowditch)
            m = (a[0] + b[0], a[1] + b[1])
            if tm <= tmax:
                traces[m] = tm
            stack.append((a, ta, m, tm, CTX.subtract(CTX.multiply(ta, tm), tb)))
            stack.append((m, tm, b, tb, CTX.subtract(CTX.multiply(tm, tb), ta)))
    return {s: _length(t) for s, t in traces.items()}


def _loss(length):
    """Relative error of a length read by acosh from a trace rounded by
    TRACE_ULPS: t / (length * sinh(length / 2)) = 2 coth(length / 2) / length."""
    return TRACE_ULPS * 2.0 / math.tanh(length / 2.0) / length


def _near(length, threshold, rel):
    return abs(length - threshold) <= (rel + _loss(length)) * length


def _near_a_threshold(lengths, L, multiples):
    """Whether an exact length lies near L, or near any L/k when multiples."""
    for length in lengths:
        ks = {max(1, round(L / length))} if multiples else {1}
        if any(_near(length, L / k, THRESHOLD_REL) for k in ks):
            return True
    return False


def _inputs():
    rng = random.Random(20261020)
    box = []
    for _ in range(100):
        ell = BERS_11 * math.sqrt(1.0 - rng.random())
        # a third of the twists lie outside [0, ell)
        v = rng.random() if len(box) % 3 else rng.uniform(-2.0, 3.0)
        box.append((ell, ell * v, rng.uniform(1.0, 12.0)))
    thin = []
    for _ in range(100):
        ell = 10.0 ** rng.uniform(-5.0, -1.0)
        thin.append((ell, ell * rng.uniform(-2.0, 3.0), rng.uniform(1.0, 12.0)))
    # systoles that tie: three slopes at the hexagonal point, two at a
    # half twist past the Bers bound
    ties = [(2 * math.acosh(1.5), -math.acosh(1.5), 9.0), (BERS_11, BERS_11 / 2, 8.0),
            (2.5, 1.25, 7.0)]
    return box + thin + ties


INPUTS = _inputs()


def test_inputs_reach_both_regimes():
    assert sum(ell < 0.1 for ell, _, _ in INPUTS) >= 100
    assert min(ell for ell, _, _ in INPUTS) < 1e-4
    assert any(not 0 <= tau < ell for ell, tau, _ in INPUTS)


@pytest.mark.parametrize("ell, tau, L", INPUTS)
def test_kernels_agree_with_the_decimal_oracle(ell, tau, L):
    name = "(ell, tau, L) = (%r, %r, %r)" % (ell, tau, L)
    # slopes a little longer than L too, which a float walk might list
    wide = oracle_spectrum(ell, tau, L * (1.0 + 1e-6))
    want = {s: v for s, v in wide.items() if v <= L}
    lengths = [float(v) for v in wide.values()]
    X = TorusPoint(ell, tau)
    tr = fn_to_triple(X)
    for got, exact in zip((tr.x, tr.y, tr.z), _roots(ell, tau)):
        assert abs(got - float(exact)) <= TRACE_ULPS * float(exact), (name, got, exact)
    checked = 0
    if not _near_a_threshold(lengths, L, multiples=False):
        assert _kernels.count_upto(tr.x, tr.y, tr.z, L) == len(want), name
        got = dict(enumerate_short_slopes(X, L))
        assert set(got) == set(want), name
        for s, length in got.items():
            exact = float(want[s])
            assert abs(length - exact) <= (LENGTH_REL + _loss(exact)) * exact, (name, s, length, exact)
        checked += 1
    if not _near_a_threshold(lengths, L, multiples=True):
        multi = sum(math.floor(Decimal(L) / v) for v in want.values())
        assert _kernels.count_multi(tr.x, tr.y, tr.z, L) == multi, name
        checked += 1
    # systole_slope reports the tie with smallest (q, p) among the slopes
    # within LENGTH_TIE_TOL of the shortest
    short = oracle_spectrum(ell, tau, BERS_11 + 1e-6)
    exact = float(min(short.values()))
    tie = exact + LENGTH_TIE_TOL
    if not any(_near(float(v), tie, LENGTH_REL) for v in short.values()):
        ties = [s for s, v in short.items() if float(v) <= tie]
        slope, length, mult = systole_slope(X)
        assert (slope.p, slope.q) == min(ties, key=lambda s: (s[1], s[0])), name
        assert abs(length - exact) <= (LENGTH_REL + _loss(exact)) * exact, name
        assert mult == len(ties), name
        checked += 1
    assert checked, name + ": every check skipped"
