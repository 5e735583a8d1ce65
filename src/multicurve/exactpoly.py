"""Exact arithmetic for rational combinations of even powers of pi, and
sparse polynomials with such coefficients.

A PiRat is a finite sum  sum_j  r_j * pi^(2j)  with rational r_j and integer
j (negative j allowed, so monomials are invertible).  A PiPoly is a sparse
polynomial in a fixed number of variables with PiRat coefficients; in the
volume tables the variables stand for squared boundary lengths, in counting
polynomials the single variable is the length cutoff.

>>> half_pi2 = PiRat.pi2(1, Fraction(1, 2))
>>> print(half_pi2 + PiRat(1))
1 + 1/2*pi^2
>>> print(half_pi2 * half_pi2)
1/4*pi^4
>>> float(PiRat.pi2(1, Fraction(1, 6)))  # doctest: +ELLIPSIS
1.644934...
"""

from __future__ import annotations

import math
from fractions import Fraction


class PiRat:
    """Element of Q[pi^2, pi^-2], kept as {j: coefficient of pi^(2j)}."""

    __slots__ = ("terms",)

    def __init__(self, value=0):
        if isinstance(value, PiRat):
            self.terms = dict(value.terms)
        elif isinstance(value, dict):
            self.terms = {int(j): Fraction(c) for j, c in value.items() if c != 0}
        else:
            q = Fraction(value)
            self.terms = {0: q} if q != 0 else {}

    @classmethod
    def pi2(cls, j: int = 1, coeff=1) -> "PiRat":
        """The monomial coeff * pi^(2j)."""
        return cls({j: Fraction(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return self.terms == PiRat(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = PiRat(other)
        out = dict(self.terms)
        for j, c in other.terms.items():
            out[j] = out.get(j, Fraction(0)) + c
        return PiRat(out)

    __radd__ = __add__

    def __neg__(self):
        return PiRat({j: -c for j, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-PiRat(other))

    def __rsub__(self, other):
        return PiRat(other) + (-self)

    def __mul__(self, other):
        other = PiRat(other)
        out = {}
        for j1, c1 in self.terms.items():
            for j2, c2 in other.terms.items():
                j = j1 + j2
                out[j] = out.get(j, Fraction(0)) + c1 * c2
        return PiRat(out)

    __rmul__ = __mul__

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def inverse(self) -> "PiRat":
        """Multiplicative inverse; defined only for monomials.

        >>> print(PiRat.pi2(1, Fraction(1, 12)).inverse())
        12*pi^-2
        """
        if not self.is_monomial():
            raise ZeroDivisionError(
                "inverse only defined for monomials, got %s" % self
            )
        ((j, c),) = self.terms.items()
        return PiRat({-j: 1 / c})

    def __truediv__(self, other):
        return self * PiRat(other).inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = PiRat(1)
        for _ in range(k):
            out = out * self
        return out

    def coefficients_positive(self) -> bool:
        return bool(self.terms) and all(c > 0 for c in self.terms.values())

    def __float__(self):
        return math.fsum(float(c) * math.pi ** (2 * j) for j, c in self.terms.items())

    def __repr__(self):
        return "PiRat(%r)" % (self.terms,)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for j in sorted(self.terms):
            c = self.terms[j]
            if j == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("pi^%d" % (2 * j))
            else:
                parts.append("%s*pi^%d" % (c, 2 * j))
        return " + ".join(parts)


class PiPoly:
    """Sparse polynomial over PiRat; keys are exponent tuples.

    >>> p = PiPoly.monomial((1,), PiRat(Fraction(1, 24))) + PiPoly.constant(
    ...     1, PiRat.pi2(1, Fraction(1, 6)))
    >>> print(p)  # V of the one-handle piece, variable = squared boundary
    1/6*pi^2 + 1/24*x0
    >>> print(p.evaluate([Fraction(0)]))
    1/6*pi^2
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = int(nvars)
        self.terms = {}
        for e, c in (terms or {}).items():
            e = tuple(int(v) for v in e)
            if len(e) != self.nvars:
                raise ValueError("exponent %r has wrong arity" % (e,))
            c = c if isinstance(c, PiRat) else PiRat(c)
            if c:
                self.terms[e] = c

    @classmethod
    def constant(cls, nvars: int, value) -> "PiPoly":
        return cls(nvars, {(0,) * nvars: PiRat(value)})

    @classmethod
    def monomial(cls, exponents, coeff) -> "PiPoly":
        return cls(len(tuple(exponents)), {tuple(exponents): PiRat(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, PiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __add__(self, other):
        if not isinstance(other, PiPoly):
            other = PiPoly.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, PiRat(0)) + c
        return PiPoly(self.nvars, out)

    def __mul__(self, other):
        if not isinstance(other, PiPoly):
            scalar = PiRat(other)
            return PiPoly(
                self.nvars, {e: c * scalar for e, c in self.terms.items()}
            )
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, PiRat(0)) + c1 * c2
        return PiPoly(self.nvars, out)

    __rmul__ = __mul__

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coefficient(self, exponents) -> PiRat:
        return self.terms.get(tuple(exponents), PiRat(0))

    def evaluate(self, values) -> PiRat:
        """Evaluate at exact values (Fractions or PiRats)."""
        values = [v if isinstance(v, PiRat) else PiRat(v) for v in values]
        if len(values) != self.nvars:
            raise ValueError("need %d values" % self.nvars)
        acc = PiRat(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                term = term * v**k
            acc = acc + term
        return acc

    def evaluate_float(self, values) -> float:
        return math.fsum(
            float(c) * math.prod(float(v) ** k for v, k in zip(values, e))
            for e, c in self.terms.items()
        )

    def coefficients_positive(self) -> bool:
        return all(c.coefficients_positive() for c in self.terms.values())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = ["x%d" % i if k == 1 else "x%d^%d" % (i, k)
                       for i, k in enumerate(e) if k]
            coeff = str(c)
            if "+" in coeff:
                coeff = "(%s)" % coeff
            parts.append("*".join([coeff] + factors) if factors else coeff)
        return " + ".join(parts)

    def __repr__(self):
        return "PiPoly(%d, %s)" % (self.nvars, self.terms)
