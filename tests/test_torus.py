"""Once-punctured-torus backend: trace coordinates, length spectra, counts,
and the fundamental-domain Monte Carlo."""

import math
import random

import pytest

from multicurve.torus import (
    BERS_11,
    FrickeTriple,
    Slope,
    TorusPoint,
    b_hat,
    convergence_diagnostic,
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


def test_fricke_triple_validation():
    FrickeTriple(3.0, 3.0, 3.0)
    with pytest.raises(ValueError, match="must lie in"):
        FrickeTriple(2.0, 3.0, 3.0)
    with pytest.raises(ValueError, match="cusp identity"):
        FrickeTriple(3.0, 3.0, 4.0)


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
        tr = fn_to_triple(X)  # constructor re-checks the identity
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


def test_estimate_b_ladder():
    ladder = estimate_B(SYM, 40.0, rungs=3)
    assert [L for L, _ in ladder] == [10.0, 20.0, 40.0]
    for L, val in ladder:
        assert val == count_b(SYM, L) / L**2
    with pytest.raises(ValueError, match="Lmax"):
        estimate_B(SYM, 9.0)
    with pytest.raises(ValueError, match="rungs"):
        estimate_B(SYM, 40.0, rungs=1)


def test_b_hat_frozen_and_converging():
    assert b_hat(SYM, 80.0) == pytest.approx(0.44578125, rel=1e-12)
    # doubling the cutoff moves the estimate by well under 10%
    assert abs(b_hat(SYM, 80.0) - b_hat(SYM, 40.0)) < 0.1 * b_hat(SYM, 80.0)


def test_convergence_diagnostic():
    ladder = estimate_B(SYM, 80.0, rungs=4)
    diag = convergence_diagnostic(ladder)
    assert 0 <= diag < 0.1
    assert convergence_diagnostic([(1.0, 0.5), (2.0, 0.0)]) == math.inf


def test_systole_slope():
    s, length, mult = systole_slope(SYM)
    assert (s.p, s.q) == (1, 0)  # smallest (q, p) among the three ties
    assert length == pytest.approx(2 * math.acosh(1.5), rel=1e-12)
    assert mult == 3
    s2, length2, mult2 = systole_slope(TorusPoint(0.05, 0.01))
    assert (s2.p, s2.q) == (0, 1)
    assert length2 == pytest.approx(0.05, rel=1e-12)
    assert mult2 == 1


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
