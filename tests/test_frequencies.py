"""Counting polynomials, frequencies, the average unit-ball volume, and the
joint-frequency identity, all in exact arithmetic."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from scipy import integrate

from multicurve.exactpoly import PiPoly, PiRat
from multicurve.frequencies import (
    BUILTIN_CUTS,
    ZETA2,
    CutData,
    FrequencyReport,
    b_closed_form_s11,
    b_from_frequencies,
    calibrate_kappa,
    count_polynomial,
    cut_nonseparating_s11,
    cut_separating_s04,
    frequency,
    joint_frequency,
    piece_volume_product,
    simplex_monomial_integral,
)
from multicurve.topology import CUSP, SurfaceType
from multicurve.volumes import parse_volume_table, volume_table_load

TABLE = volume_table_load()


def s12_one_cut():
    # cut the twice-punctured torus along one nonseparating curve: a
    # four-holed sphere with two ends glued back along the curve
    return CutData(
        SurfaceType(1, 2), 1, ((SurfaceType(0, 4), (1, 1, CUSP, CUSP)),)
    )


def test_cutdata_validation():
    cut = cut_nonseparating_s11()
    assert cut.k == 1 and len(cut.pieces) == 1
    with pytest.raises(ValueError, match="exactly twice"):
        CutData(SurfaceType(1, 1), 1, ((SurfaceType(0, 3), (1, CUSP, CUSP)),))
    with pytest.raises(ValueError, match="out of range"):
        CutData(SurfaceType(1, 1), 1, ((SurfaceType(0, 3), (1, 2, CUSP)),))
    with pytest.raises(ValueError, match="ends"):
        CutData(SurfaceType(1, 1), 1, ((SurfaceType(0, 3), (1, 1)),))
    with pytest.raises(ValueError, match="Euler"):
        CutData(SurfaceType(1, 2), 1, ((SurfaceType(0, 3), (1, 1, CUSP)),))
    with pytest.raises(ValueError, match="1..N"):
        CutData(SurfaceType(1, 1), 2, ())
    assert set(BUILTIN_CUTS) == {"S11", "S04"}


def test_simplex_monomial_integral_exact():
    # ∫_{x <= L} 1 dx = L, ∫_{x <= L} x dx = L²/2
    assert simplex_monomial_integral([0], [1]) == PiPoly.monomial((1,), 1)
    assert simplex_monomial_integral([1], [1]) == PiPoly.monomial(
        (2,), Fraction(1, 2)
    )
    # two variables, exponents (1, 1): L⁴/24
    assert simplex_monomial_integral([1, 1], [1, 1]) == PiPoly.monomial(
        (4,), Fraction(1, 24)
    )
    # weight q rescales: ∫_{qx <= L} x dx = L²/(2q²)
    assert simplex_monomial_integral([1], [3]) == PiPoly.monomial(
        (2,), Fraction(1, 18)
    )
    with pytest.raises(ValueError):
        simplex_monomial_integral([1, 1], [1])
    with pytest.raises(ValueError):
        simplex_monomial_integral([-1], [1])
    with pytest.raises(ValueError):
        simplex_monomial_integral([1], [0])


def test_simplex_monomial_integral_against_quadrature():
    # dblquad oracle for e = (1, 2), a = (1, 3), L = 2
    val, err = integrate.dblquad(
        lambda y, x: x * y * y,
        0,
        2,
        0,
        lambda x: (2 - x) / 3,
    )
    poly = simplex_monomial_integral([1, 2], [1, 3])
    assert poly.evaluate_float([2.0]) == pytest.approx(val, rel=1e-9)
    assert err < 1e-9


def test_piece_volume_product_s11():
    vol = piece_volume_product(cut_nonseparating_s11(), TABLE)
    # V(0,3) = 1 with both ends on the cut curve: constant 1 in one variable
    assert vol == PiPoly.constant(1, 1)


def test_piece_volume_product_s12_cut():
    vol = piece_volume_product(s12_one_cut(), TABLE)
    # V(0,4)(x, x, 0, 0) = 2pi² + x²  (squared-variable exponents add)
    assert vol.coefficient((0,)) == PiRat.pi2(1, 2)
    assert vol.coefficient((1,)) == 1
    assert vol.total_degree() == 1


def test_count_polynomial_s11():
    p = count_polynomial(cut_nonseparating_s11(), [1], 1, TABLE)
    # κ ∫_{x<=L} x dx = L²/2
    assert p == PiPoly.monomial((2,), Fraction(1, 2))
    # weight 2 divides by 4
    p2 = count_polynomial(cut_nonseparating_s11(), [2], 1, TABLE)
    assert p2 == PiPoly.monomial((2,), Fraction(1, 8))
    # kappa scales linearly
    p3 = count_polynomial(cut_nonseparating_s11(), [1], Fraction(3, 4), TABLE)
    assert p3 == PiPoly.monomial((2,), Fraction(3, 8))


def test_count_polynomial_s04():
    p = count_polynomial(cut_separating_s04(), [1], 1, TABLE)
    # two pants pieces, V ≡ 1 each: same L²/2
    assert p == PiPoly.monomial((2,), Fraction(1, 2))


def test_count_polynomial_s12():
    p = count_polynomial(s12_one_cut(), [1], 1, TABLE)
    # ∫ (2pi² + x²) x dx = pi²L² + L⁴/4
    assert p.coefficient((2,)) == PiRat.pi2(1)
    assert p.coefficient((4,)) == Fraction(1, 4)
    assert p.total_degree() == 4 == SurfaceType(1, 2).dim
    # quadrature cross-check at L = 3
    val, _ = integrate.quad(lambda x: (2 * math.pi**2 + x * x) * x, 0, 3)
    assert p.evaluate_float([3.0]) == pytest.approx(val, rel=1e-12)


def test_count_polynomial_validation():
    with pytest.raises(ValueError, match="kappa"):
        count_polynomial(cut_nonseparating_s11(), [1], 0, TABLE)
    with pytest.raises(ValueError, match="weights"):
        count_polynomial(cut_nonseparating_s11(), [1, 2], 1, TABLE)
    # a truncated volume entry breaks the degree invariant: cutting S12
    # into a one-handle plus a pair of pants needs the full V(1,1)
    cut = CutData(
        SurfaceType(1, 2),
        1,
        ((SurfaceType(1, 1), (1,)), (SurfaceType(0, 3), (1, CUSP, CUSP))),
    )
    p = count_polynomial(cut, [1], 1, TABLE)
    assert p.coefficient((4,)) == Fraction(1, 96)
    bad = parse_volume_table("V 1 1 : 1/6 pi2")
    with pytest.raises(AssertionError, match="degree"):
        count_polynomial(cut, [1], 1, bad)


def test_frequency_values_and_weight_scaling():
    c1 = frequency(cut_nonseparating_s11(), [1], 1, TABLE)
    assert c1 == Fraction(1, 2)
    # c(q.γ) = c(γ)/q² for the once-punctured torus
    for q in (2, 3, 5):
        assert frequency(cut_nonseparating_s11(), [q], 1, TABLE) == Fraction(
            1, 2 * q * q
        )
    # S12: frequency is the coefficient of L⁴, κ/4; halves of the quartic
    # scaling 1/q⁴ beat the generic 1/q² bound
    c_s12 = frequency(s12_one_cut(), [1], 1, TABLE)
    assert c_s12 == Fraction(1, 4)
    assert frequency(s12_one_cut(), [2], 1, TABLE) == Fraction(1, 64)
    # strictly below the 1/q² comparison line
    assert Fraction(1, 64) < Fraction(1, 4) * Fraction(1, 4)


def test_frequency_monotone_in_weight():
    vals = [
        float(frequency(cut_nonseparating_s11(), [q], 1, TABLE))
        for q in range(1, 8)
    ]
    assert vals == sorted(vals, reverse=True)


def test_b_from_frequencies_partial_and_tail():
    types = [(cut_nonseparating_s11(), 1)]
    partial, tail = b_from_frequencies(SurfaceType(1, 1), types, TABLE, 10)
    # sum_{q<=10} 1/(2q²) exactly
    expected = Fraction(1, 2) * sum(Fraction(1, q * q) for q in range(1, 11))
    assert partial == expected
    assert partial == PiRat(Fraction(1968329, 2540160))
    # the tail bound covers the true gap to κπ²/12
    gap = float(b_closed_form_s11(1)) - float(partial)
    assert 0 < gap <= tail
    assert tail == pytest.approx(0.05, abs=1e-12)


def test_b_from_frequencies_tail_shrinks():
    types = [(cut_nonseparating_s11(), 1)]
    p10, t10 = b_from_frequencies(SurfaceType(1, 1), types, TABLE, 10)
    p20, t20 = b_from_frequencies(SurfaceType(1, 1), types, TABLE, 20)
    assert float(p20) > float(p10)
    assert t20 == pytest.approx(t10 / 2, rel=1e-12)
    assert float(p20) + t20 >= float(b_closed_form_s11(1))


def test_b_from_frequencies_validation():
    types = [(cut_nonseparating_s11(), 1)]
    with pytest.raises(ValueError, match="cap"):
        b_from_frequencies(SurfaceType(1, 1), types, TABLE, 0)
    with pytest.raises(ValueError, match="does not live on"):
        b_from_frequencies(SurfaceType(0, 4), types, TABLE, 5)


def test_b_from_frequencies_raises_above_its_budget_before_summing():
    from multicurve.frequencies import _WEIGHTS

    s11 = cut_nonseparating_s11()
    # cap^k weight vectors summed over the types, counted before the first
    # weight is summed: a sum that size would take minutes
    for types, cap in (([(s11, 1)], _WEIGHTS + 1), ([(s11, 1), (s11, 1)], _WEIGHTS // 2 + 1),
                       ([(s11, 1)], 10**400)):
        with pytest.raises(ArithmeticError, match="weight vectors, above the budget of 100000$"):
            b_from_frequencies(SurfaceType(1, 1), types, TABLE, cap)
    # the types are read once, so a generator serves as a list does
    listed = b_from_frequencies(SurfaceType(1, 1), [(s11, 1)], TABLE, 10)
    assert b_from_frequencies(SurfaceType(1, 1), ((c, k) for c, k in [(s11, 1)]), TABLE, 10) == listed


def s12_two_cut():
    # cut the twice-punctured torus along two curves into two pants, each
    # with one cusp: V = 1, so every frequency is κ/(24·a_1²·a_2²)
    pants = (SurfaceType(0, 3), (1, 2, CUSP))
    return CutData(SurfaceType(1, 2), 2, (pants, pants))


def _by_weight(surface, types, cap):
    # the definition: one counting polynomial per weight vector, and the
    # tail bound c(1.γ)·k·ζ(2)^(k-1)/cap per type
    partial, tail = PiRat(0), 0.0
    for cut, kappa in types:
        for a in itertools.product(range(1, cap + 1), repeat=cut.k):
            partial = partial + count_polynomial(cut, a, kappa, TABLE).coefficient((surface.dim,))
        c_one = float(frequency(cut, [1] * cut.k, kappa, TABLE))
        tail += c_one * cut.k * float(ZETA2) ** (cut.k - 1) / cap
    return partial, tail


def _assert_sums_as_defined(surface, types, cap):
    got = b_from_frequencies(surface, types, TABLE, cap)
    want = _by_weight(surface, types, cap)
    assert got == want, (types, cap)
    assert str(got[0]) == str(want[0]) and got[1].hex() == want[1].hex()


@pytest.mark.parametrize("cut", [cut_nonseparating_s11(), cut_separating_s04()])
def test_b_from_frequencies_sums_each_weight_as_defined(cut):
    for cap in list(range(1, 61)) + [100, 600]:
        _assert_sums_as_defined(cut.surface, [(cut, 1)], cap)
    _assert_sums_as_defined(cut.surface, [(cut, Fraction(3, 4)), (cut, 2)], 17)


def test_b_from_frequencies_keeps_the_leading_terms_alone():
    # V(0,4)(x, x, 0, 0) = 2π² + x, x the squared length: the constant
    # term reaches only L², so the sum is κ/4·Σ 1/q⁴ with no π² in it
    s12 = SurfaceType(1, 2)
    one, two = s12_one_cut(), s12_two_cut()
    for kappa in (1, Fraction(3, 4)):
        for cap in (1, 2, 3, 10, 60):
            _assert_sums_as_defined(s12, [(one, kappa)], cap)
            partial, _ = b_from_frequencies(s12, [(one, kappa)], TABLE, cap)
            assert partial == PiRat(Fraction(kappa) / 4 * sum(Fraction(1, q**4) for q in range(1, cap + 1)))
        # two cut curves: the sum over [1, cap]^2 is a product of two sums
        for cap in (1, 2, 5, 12):
            _assert_sums_as_defined(s12, [(two, kappa)], cap)
            h = sum(Fraction(1, q * q) for q in range(1, cap + 1))
            assert b_from_frequencies(s12, [(two, kappa)], TABLE, cap)[0] == PiRat(Fraction(kappa) / 24 * h * h)
        _assert_sums_as_defined(s12, [(one, kappa), (two, Fraction(5, 3))], 7)


def test_b_from_frequencies_factors_unequal_powers():
    # S13 cut along two curves into a four-holed sphere and a pair of
    # pants: V = 2π² + (x_1 + x_2)/2, whose two degree-6 terms each give
    # κ/240·H(4)·H(2), with the powers on different curves
    pieces = ((SurfaceType(0, 4), (1, 2, CUSP, CUSP)), (SurfaceType(0, 3), (1, 2, CUSP)))
    cut = CutData(SurfaceType(1, 3), 2, pieces)
    for cap in (1, 2, 5, 9):
        _assert_sums_as_defined(cut.surface, [(cut, Fraction(3, 4))], cap)
        h2, h4 = (sum(Fraction(1, q**s) for q in range(1, cap + 1)) for s in (2, 4))
        partial, _ = b_from_frequencies(cut.surface, [(cut, Fraction(3, 4))], TABLE, cap)
        assert partial == PiRat(Fraction(3, 4) / 120 * h2 * h4)


def test_b_from_frequencies_refuses_a_nonpositive_kappa_before_summing():
    # κ is checked before the sum, so the error comes at once even at the
    # largest cap the budget admits
    from multicurve.frequencies import _WEIGHTS

    s11 = cut_nonseparating_s11()
    for kappa in (0, -1, Fraction(-3, 4)):
        with pytest.raises(ValueError, match="kappa must be positive"):
            b_from_frequencies(SurfaceType(1, 1), [(s11, kappa)], TABLE, _WEIGHTS)
        with pytest.raises(ValueError, match="kappa must be positive"):
            b_from_frequencies(SurfaceType(1, 2), [(s12_two_cut(), 1), (s12_one_cut(), kappa)], TABLE, 5)


def test_b_closed_form_s11():
    assert b_closed_form_s11(1) == PiRat.pi2(1, Fraction(1, 12))
    assert b_closed_form_s11(Fraction(1, 2)) == PiRat.pi2(1, Fraction(1, 24))
    assert float(b_closed_form_s11(1)) == pytest.approx(
        0.8224670334241131, rel=1e-15
    )


def test_joint_frequency_exact():
    # c(γ₁)=1/2, c(2γ₂)=1/8, a = 9/20, b = π²/12:
    # joint = (9/20)·(144/π⁴)·(1/16) = 81/20 · π⁻⁴
    c1 = frequency(cut_nonseparating_s11(), [1], 1, TABLE)
    c2 = frequency(cut_nonseparating_s11(), [2], 1, TABLE)
    a = PiRat(Fraction(9, 20))
    b = b_closed_form_s11(1)
    joint = joint_frequency(c1, c2, a, b)
    assert joint == PiRat.pi2(-2, Fraction(81, 20))
    assert float(joint) == pytest.approx(0.04157722813147156, rel=1e-14)
    # symmetric in the two marginals
    assert joint == joint_frequency(c2, c1, a, b)


def test_joint_identity_partial_sums():
    # summing joint frequencies over weights q1, q2 <= cap approaches
    # a·(partial/b)² with equality coefficient-wise in the cap limit
    a = PiRat(Fraction(9, 20))
    b = b_closed_form_s11(1)
    kappa = 1
    cut = cut_nonseparating_s11()
    prev = 0.0
    target = float(a)
    for cap in (4, 8, 16):
        total = PiRat(0)
        for q1 in range(1, cap + 1):
            for q2 in range(1, cap + 1):
                c1 = frequency(cut, [q1], kappa, TABLE)
                c2 = frequency(cut, [q2], kappa, TABLE)
                total = total + joint_frequency(c1, c2, a, b)
        partial, _ = b_from_frequencies(SurfaceType(1, 1), [(cut, kappa)], TABLE, cap)
        # identity holds exactly at every cap
        assert total == a * partial * partial / (b * b)
        # and the ratio to a·1 climbs toward 1 as the partial sum fills in
        ratio = float(total) / target * float(b * b) / float(partial) ** 2
        assert ratio == pytest.approx(1.0, rel=1e-12)
        assert float(total) > prev
        prev = float(total)


@dataclass
class FakeOracle:
    estimate: float
    stderr: float


def test_calibrate_kappa_snaps_to_rational():
    cut = cut_nonseparating_s11()
    L = 10.0
    denom = count_polynomial(cut, [1], 1, TABLE).evaluate_float([L])
    # an estimate agreeing with κ = 1 exactly
    assert calibrate_kappa(cut, [1], TABLE, FakeOracle(denom, 0.01 * denom), L) == 1
    # κ = 3/4 with small noise still snaps
    noisy = FakeOracle(0.75 * denom * 1.002, 0.01 * denom)
    assert calibrate_kappa(cut, [1], TABLE, noisy, L) == Fraction(3, 4)
    # 0.701 lies 1e-3 from 7/10, far beyond 3 stderr: it refuses to round
    with pytest.raises(ValueError, match=r"lies 0\.001 from 7/10, .* 3 stderr = 6e-08"):
        calibrate_kappa(cut, [1], TABLE, FakeOracle(0.701 * denom, 1e-6), L)
    # 0.01 is within 3 stderr of 0/1, which is not positive
    with pytest.raises(ValueError, match="from 0, the nearest p/q"):
        calibrate_kappa(cut, [1], TABLE, FakeOracle(0.01 * denom, 0.01 * denom), L)


def test_frequency_report_as_dict():
    cut = cut_nonseparating_s11()
    p = count_polynomial(cut, [1], 1, TABLE)
    c = frequency(cut, [1], 1, TABLE)
    rep = FrequencyReport(p_poly=p, c_exact=c, c_float=float(c), kappa=Fraction(1))
    assert rep.as_dict() == {"P": "1/2*x0^2", "c": "1/2", "c_float": 0.5, "kappa": "1"}
