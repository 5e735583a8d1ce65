"""Counting polynomials and frequencies.

Averaging the count of a weighted multicurve a.γ over moduli space unfolds
to an integral over the cut pieces:

    P(L, a.γ) = κ(γ, a) · ∫_{a·x ≤ L} V(γ, x) x dx,

where x ranges over the cut-curve lengths, V(γ, x) is the product of the cut
pieces' volume polynomials, and κ is a positive rational bookkeeping
constant, calibrated against the geometric backend (KAPPA).  The frequency
c(a.γ) is the leading coefficient of P; summing frequencies over all
topological types and integer weights gives the average
unit-ball volume b_{g,n}, and the joint frequency of a pair is
(a_{g,n}/b_{g,n}²)·c(γ₁)·c(γ₂).

Only the terms c_e·x^e of V with Σ_i (2e_i + 2) = dim reach the leading
coefficient, so c(a.γ) = Σ_e C_e · Π_i a_i^-(2e_i+2), with
C_e = κ·c_e·Π(2e_i+1)!/dim!.  A sum of frequencies over the weights
[1, cap]^k is then Σ_e C_e times a product of power sums
Σ_{q≤cap} q^-(2e_i+2), one per cut curve.

Everything here is exact in Q[pi²]; floats appear only in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exactpoly import PiPoly, PiRat
from .topology import CUSP, SurfaceType
from .volumes import VolumeTable

ZETA2 = PiRat.pi2(1, Fraction(1, 6))  # sum of 1/q^2


@dataclass(frozen=True)
class CutData:
    """Result of cutting a surface along a multicurve γ = (γ_1, ..., γ_k).

    pieces: (SurfaceType, labels) pairs; labels is one entry per end of the
    piece, either a cut-curve index 1..k or the cusp marker "*".  Each cut
    curve produces exactly two ends across all pieces.
    """

    surface: SurfaceType
    k: int
    pieces: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(
            self, "pieces", tuple((s, tuple(lbl)) for s, lbl in self.pieces)
        )
        if not (1 <= self.k <= self.surface.cuff_count):
            raise ValueError("component count must lie in 1..N")
        euler = 0
        seen = {i: 0 for i in range(1, self.k + 1)}
        for piece, labels in self.pieces:
            if len(labels) != piece.punctures:
                raise ValueError(
                    "piece %s has %d ends, %d labels"
                    % (piece.name, piece.punctures, len(labels))
                )
            euler += 2 - 2 * piece.genus - piece.punctures
            for lbl in labels:
                if lbl == CUSP:
                    continue
                if lbl not in seen:
                    raise ValueError("label %r out of range 1..%d" % (lbl, self.k))
                seen[lbl] += 1
        g, n = self.surface.genus, self.surface.punctures
        if euler != 2 - 2 * g - n:
            raise ValueError(
                "cut pieces have total Euler characteristic %d, ambient has %d"
                % (euler, 2 - 2 * g - n)
            )
        bad = [i for i, cnt in seen.items() if cnt != 2]
        if bad:
            raise ValueError("cut curves %s must appear exactly twice" % bad)


def cut_nonseparating_s11() -> CutData:
    """The single topological type of simple closed curve on the
    once-punctured torus: cutting gives one three-holed sphere."""
    return CutData(SurfaceType(1, 1), 1, ((SurfaceType(0, 3), (1, 1, CUSP)),))


def cut_separating_s04() -> CutData:
    """A simple closed curve on the four-punctured sphere: two three-holed
    spheres."""
    return CutData(
        SurfaceType(0, 4),
        1,
        (
            (SurfaceType(0, 3), (1, CUSP, CUSP)),
            (SurfaceType(0, 3), (1, CUSP, CUSP)),
        ),
    )


BUILTIN_CUTS = {
    "S11": cut_nonseparating_s11,
    "S04": cut_separating_s04,
}

# κ per surface, for its builtin cut: S11's khat = 1.0019 +- 0.0053 at
# L in {40, 80} (calibrate_kappa against the torus backend), snapped to 1
KAPPA = {"S11": Fraction(1)}


def simplex_monomial_integral(e, a) -> PiPoly:
    """∫ over {sum a_i x_i <= L, x_i >= 0} of prod x_i^e_i dx, as an exact
    monomial in L:

        L^(k + sum e) · prod(e_i!) / ((k + sum e)! · prod a_i^(e_i + 1)).
    """
    e = [int(v) for v in e]
    a = [Fraction(v) for v in a]
    if len(e) != len(a):
        raise ValueError("exponents and weights must have equal length")
    if any(v < 0 for v in e) or any(w <= 0 for w in a):
        raise ValueError("need nonnegative exponents and positive weights")
    k = len(e)
    deg = k + sum(e)
    coeff = Fraction(1)
    for ei, ai in zip(e, a):
        coeff *= Fraction(math.factorial(ei)) / ai ** (ei + 1)
    coeff /= math.factorial(deg)
    return PiPoly.monomial((deg,), coeff)


def piece_volume_product(cut: CutData, table: VolumeTable) -> PiPoly:
    """V(γ, x) as a polynomial in the k squared cut-curve lengths."""
    prod = PiPoly.constant(cut.k, 1)
    for piece, labels in cut.pieces:
        vol = table.get(piece.genus, piece.punctures)
        # re-express in the k global variables; cusp slots evaluate to zero
        terms = {}
        for e, c in vol.terms.items():
            ee = [0] * cut.k
            dead = False
            for slot, lbl in enumerate(labels):
                if lbl == CUSP:
                    if e[slot] != 0:
                        dead = True
                        break
                else:
                    ee[lbl - 1] += e[slot]
            if dead:
                continue
            key = tuple(ee)
            terms[key] = terms.get(key, PiRat(0)) + c
        prod = prod * PiPoly(cut.k, terms)
    return prod


def count_polynomial(cut: CutData, a, kappa, table: VolumeTable) -> PiPoly:
    """P(L, a.γ): exact polynomial in L of degree 6g-6+2n with nonnegative
    coefficients."""
    kappa = Fraction(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    a = [Fraction(v) for v in a]
    if len(a) != cut.k:
        raise ValueError("need %d weights" % cut.k)
    out = PiPoly(1)
    for e2, c in piece_volume_product(cut, table).terms.items():
        exps = [2 * v + 1 for v in e2]  # V carries squared variables; x dx adds one
        out = out + simplex_monomial_integral(exps, a) * c
    out = out * PiRat(kappa)
    expected = cut.surface.dim
    if out.total_degree() != expected:
        raise AssertionError(
            "counting polynomial degree %d, expected %d"
            % (out.total_degree(), expected)
        )
    return out


def frequency(cut: CutData, a, kappa, table: VolumeTable) -> PiRat:
    """Leading coefficient c(a.γ) of the counting polynomial, exact."""
    poly = count_polynomial(cut, a, kappa, table)
    return poly.coefficient((cut.surface.dim,))


# b_from_frequencies' budget: the weight vectors a call may sum over.  On
# S11 the sum took 0.0016, 1.0 and 21 s at caps 600, 3*10^4 and 10^5 (2
# shared x86-64 vCPUs), nearly all of it in the power sum H(2), whose
# denominator grows with the cap.  verify sums to cap 100 and the benchmark
# to 600.
_WEIGHTS = 10**5


def b_from_frequencies(
    surface: SurfaceType,
    types,
    table: VolumeTable,
    cap: int,
) -> tuple[PiRat, float]:
    """Partial sum of c(a.γ) over the given topological types and all
    integer weight vectors with entries <= cap, plus a rigorous tail bound.

    types: iterable of (CutData, kappa).  Each frequency is
    c(a.γ) = sum_e C_e · prod_i a_i^-s_i, over the terms c_e·x^e of the
    cut's volume product V whose degree sum s_i, with s_i = 2e_i + 2, is dim.
    C_e = κ·c_e·prod (2e_i + 1)!/dim! is κ·c_e times the L^dim coefficient
    of simplex_monomial_integral(2e + 1, [1]*k); lower terms never reach
    the leading coefficient.  So the sum over [1, cap]^k factors into exact
    power sums, sum_e C_e · prod_i H(s_i) with H(s) = sum_{q <= cap} 1/q^s,
    and costs no frequency per weight vector.

    The tail uses the weight-scaling bound c(a.γ) <= c(1.γ)·prod 1/a_i²
    together with sum_{a not in [1..cap]^k} prod 1/a_i² <= k·ζ(2)^(k-1)/cap.

    Raises ArithmeticError, before anything is summed, where the types
    hold more than _WEIGHTS weight vectors cap^k in all.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    types = list(types)
    weights = sum(cap ** cut.k for cut, _ in types)
    if weights > _WEIGHTS:
        raise ArithmeticError(
            "frequency sums to cap %d hold %d weight vectors, above the budget of %d"
            % (cap, weights, _WEIGHTS))
    partial = PiRat(0)
    tail = 0.0
    zeta2f = float(ZETA2)
    for cut, kappa in types:
        if cut.surface != surface:
            raise ValueError("cut %r does not live on %s" % (cut, surface.name))
        k, dim = cut.k, cut.surface.dim
        c_one = frequency(cut, [1] * k, kappa, table)
        for e, c in piece_volume_product(cut, table).terms.items():
            # zero unless the term's degree sum(2e_i + 2) is dim
            unit = simplex_monomial_integral([2 * v + 1 for v in e], [1] * k).coefficient((dim,))
            if unit:
                h = math.prod(sum(Fraction(1, q ** (2 * v + 2)) for q in range(1, cap + 1)) for v in e)
                partial = partial + unit * c * PiRat(Fraction(kappa) * h)
        tail += float(c_one) * k * zeta2f ** (k - 1) / cap
    return partial, tail


def b_closed_form_s11(kappa) -> PiRat:
    """Sum over all weights q of c(q.γ) on the once-punctured torus:
    κ/2 · ζ(2) = κπ²/12."""
    return PiRat(Fraction(kappa)) * ZETA2 * PiRat(Fraction(1, 2))


def joint_frequency(c1, c2, a, b) -> PiRat:
    """c(γ₁, γ₂) = (a/b²)·c(γ₁)·c(γ₂), exact in PiRat; b must be a monomial
    (dividing by any other PiRat raises ZeroDivisionError)."""
    return a * c1 * c2 / (b * b)


def calibrate_kappa(cut: CutData, a, table: VolumeTable, counting_oracle, L: float):
    """Estimate κ from a Monte Carlo oracle for the moduli average of the
    counting function at cutoff L.

    counting_oracle(L) must return an object with .estimate and .stderr
    fields for ∫ s(X, a.γ, L).  The ratio against the κ = 1 polynomial is
    rounded to a small-denominator rational when the oracle error allows.
    """
    result = counting_oracle(L)
    denom = count_polynomial(cut, a, 1, table).evaluate_float([L])
    if denom <= 0:
        raise ValueError("degenerate unfolding integral at L = %r" % L)
    khat = result.estimate / denom
    err = result.stderr / denom
    rounded = Fraction(khat).limit_denominator(16)
    if abs(float(rounded) - khat) <= 3 * err and rounded > 0:
        return rounded
    raise ValueError(
        "oracle variance too large to round kappa: khat=%.6g err=%.2g" % (khat, err)
    )


@dataclass
class FrequencyReport:
    """Bundle of the exact objects the CLI prints."""

    p_poly: PiPoly
    c_exact: PiRat
    c_float: float
    kappa: Fraction

    def as_dict(self) -> dict:
        return {
            "P": str(self.p_poly),
            "c": str(self.c_exact),
            "c_float": self.c_float,
            "kappa": str(self.kappa),
        }
