"""Exact pi^2-rational arithmetic and sparse polynomials over it."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multicurve.exactpoly import PiRat, PiPoly


rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=12
)
pirats = st.dictionaries(st.integers(-2, 2), rationals, max_size=3).map(PiRat)


def test_pirat_construction():
    assert PiRat() == 0
    assert PiRat(3).terms == {0: Fraction(3)}
    assert PiRat(Fraction(1, 2)).terms == {0: Fraction(1, 2)}
    # zero coefficients are dropped
    assert PiRat({1: 0, 0: 2}).terms == {0: Fraction(2)}
    copy = PiRat(PiRat.pi2(2, 5))
    assert copy.terms == {2: Fraction(5)}


def test_pi2_value():
    zeta2 = PiRat.pi2(1, Fraction(1, 6))
    assert float(zeta2) == pytest.approx(math.pi**2 / 6, rel=1e-15)
    assert float(PiRat.pi2(-1, 12)) == pytest.approx(12 / math.pi**2, rel=1e-15)


@given(pirats, pirats, pirats)
def test_pirat_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == PiRat(0)


@given(pirats)
def test_pirat_float_is_homomorphic_enough(a):
    # float() of a sum must agree with the sum of floats to rounding
    b = PiRat.pi2(1, Fraction(1, 3))
    assert float(a + b) == pytest.approx(float(a) + float(b), abs=1e-9)


def test_pirat_inverse_and_div():
    m = PiRat.pi2(1, Fraction(1, 12))
    assert m.inverse() == PiRat.pi2(-1, 12)
    assert m * m.inverse() == 1
    assert (m / m) == 1
    assert PiRat(6) / 3 == 2
    with pytest.raises(ZeroDivisionError):
        (PiRat(1) + PiRat.pi2(1)).inverse()
    with pytest.raises(ZeroDivisionError):
        PiRat(0).inverse()


def test_pirat_pow():
    m = PiRat.pi2(1, Fraction(1, 2))
    assert m**0 == 1
    assert m**2 == PiRat.pi2(2, Fraction(1, 4))
    assert m**-1 == PiRat.pi2(-1, 2)
    two = PiRat(2)
    assert two**10 == 1024


def test_pirat_is_monomial():
    assert PiRat.pi2(3, Fraction(7, 5)).is_monomial()
    assert PiRat(4).is_monomial()
    assert not PiRat(0).is_monomial()
    assert not (PiRat(1) + PiRat.pi2(1)).is_monomial()


def test_pirat_coefficients_positive():
    assert PiRat.pi2(1, Fraction(1, 6)).coefficients_positive()
    assert not PiRat(0).coefficients_positive()
    assert not (PiRat(1) - PiRat.pi2(1)).coefficients_positive()


def test_pirat_str():
    assert str(PiRat(0)) == "0"
    assert str(PiRat(Fraction(3, 4))) == "3/4"
    assert str(PiRat.pi2(1, Fraction(1, 12))) == "1/12*pi^2"
    assert str(PiRat.pi2(2)) == "pi^4"
    assert str(PiRat.pi2(-1, 12)) == "12*pi^-2"
    assert str(PiRat(1) + PiRat.pi2(1, Fraction(1, 2))) == "1 + 1/2*pi^2"


def test_pirat_eq_and_hash():
    a = PiRat.pi2(1, Fraction(2, 4))
    b = PiRat.pi2(1, Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != PiRat.pi2(1, Fraction(1, 3))
    assert PiRat(5) == 5


def test_pipoly_constructors():
    p = PiPoly.monomial((1, 0), Fraction(1, 24))
    assert p.nvars == 2
    assert p.coefficient((1, 0)) == Fraction(1, 24)
    assert p.coefficient((0, 1)) == 0
    c = PiPoly.constant(3, PiRat.pi2(1))
    assert c.terms == {(0, 0, 0): PiRat.pi2(1)}
    with pytest.raises(ValueError):
        PiPoly(2, {(1,): 1})


def test_pipoly_add_mul():
    x = PiPoly.monomial((1,), 1)
    one = PiPoly.constant(1, 1)
    p = (x + one) * (x + one)
    assert p.coefficient((2,)) == 1
    assert p.coefficient((1,)) == 2
    assert p.coefficient((0,)) == 1
    assert p.total_degree() == 2
    # scalar multiply keeps the exponent set
    q = p * Fraction(1, 2)
    assert q.coefficient((1,)) == 1
    with pytest.raises(ValueError):
        x + PiPoly.constant(2, 1)
    with pytest.raises(ValueError):
        x * PiPoly.monomial((1, 1), 1)


def test_pipoly_evaluate_exact_vs_float():
    # V-like polynomial: pi^2/6 + x/24
    p = PiPoly.monomial((1,), Fraction(1, 24)) + PiPoly.constant(
        1, PiRat.pi2(1, Fraction(1, 6))
    )
    v = p.evaluate([Fraction(4)])
    assert v == PiRat.pi2(1, Fraction(1, 6)) + Fraction(1, 6)
    assert p.evaluate_float([4.0]) == pytest.approx(float(v), rel=1e-15)
    # evaluating at a PiRat stays exact
    w = p.evaluate([PiRat.pi2(1)])
    assert w == PiRat.pi2(1, Fraction(1, 6) + Fraction(1, 24))
    with pytest.raises(ValueError):
        p.evaluate([1, 2])


def test_pipoly_total_degree_and_zero():
    assert PiPoly(2).total_degree() == 0
    assert not PiPoly(2)
    assert str(PiPoly(2)) == "0"
    p = PiPoly.monomial((2, 3), 1)
    assert p.total_degree() == 5


def test_pipoly_coefficients_positive():
    p = PiPoly.monomial((1,), Fraction(1, 24)) + PiPoly.constant(1, 2)
    assert p.coefficients_positive()
    assert not (p + PiPoly.monomial((2,), -1)).coefficients_positive()


def test_pipoly_str():
    p = PiPoly.monomial((1, 0), Fraction(1, 24)) + PiPoly.constant(
        2, PiRat.pi2(1, Fraction(1, 6))
    )
    s = str(p)
    assert "1/6*pi^2" in s
    assert "1/24*x0" in s
    # composite coefficients get parenthesized
    mixed = PiPoly.monomial((1,), PiRat(1) + PiRat.pi2(1))
    assert str(mixed) == "(1 + pi^2)*x0"


@given(
    st.lists(rationals, min_size=1, max_size=3),
    st.lists(rationals, min_size=1, max_size=3),
)
def test_pipoly_evaluate_is_ring_hom(cs, ds):
    # (p*q)(v) == p(v)*q(v) and (p+q)(v) == p(v)+q(v), single variable
    p = PiPoly(1, {(i,): c for i, c in enumerate(cs)})
    q = PiPoly(1, {(i,): d for i, d in enumerate(ds)})
    v = [Fraction(3, 2)]
    assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)
    assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)
