"""Volume polynomial tables.

Total volumes V_{g,n}(b_1, ..., b_n) of moduli spaces of bordered surfaces
are polynomial in the squared boundary lengths with positive coefficients;
they enter the counting-polynomial layer as data.  This module parses the
line-record text format (see data/volumes.txt) into PiPoly objects keyed by
(g, n); a cusp is a boundary evaluated at length zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from importlib import resources

from .exactpoly import PiPoly, PiRat

_TERM_TOKEN = re.compile(
    r"^(?P<rat>-?\d+(?:/\d+)?)$|^pi2(?:\^(?P<pj>\d+))?$|^b(?P<bi>\d+)\^(?P<be>\d+)$"
)


class VolumeTable:
    def __init__(self, entries: dict):
        self.entries = dict(entries)
        key = (0, 3)
        if key not in self.entries:
            self.entries[key] = PiPoly.constant(3, 1)

    def get(self, g: int, n: int) -> PiPoly:
        """Polynomial in n variables (squared boundary lengths)."""
        try:
            return self.entries[(g, n)]
        except KeyError:
            raise KeyError("no volume entry for (g, n) = (%d, %d)" % (g, n)) from None

    def volume(self, g: int, n: int, boundary_lengths) -> PiRat:
        """Exact volume at rational boundary lengths (cusps: length 0)."""
        b2 = [Fraction(b) ** 2 for b in boundary_lengths]
        return self.get(g, n).evaluate(b2)


def _parse_term(text: str, n: int):
    coeff = None
    pi_power = 0
    exponents = [0] * n
    for tok in text.split():
        match = _TERM_TOKEN.match(tok)
        if match is None:
            raise ValueError("bad token %r in term %r" % (tok, text))
        if match.group("rat") is not None:
            if coeff is not None:
                raise ValueError("two rational factors in term %r" % text)
            coeff = Fraction(match.group("rat"))
        elif match.group("bi") is not None:
            i = int(match.group("bi"))
            e = int(match.group("be"))
            if not (1 <= i <= n):
                raise ValueError("variable b%d out of range in term %r" % (i, text))
            if e % 2 != 0 or e <= 0:
                raise ValueError(
                    "boundary variables carry positive even exponents, got %r" % tok
                )
            exponents[i - 1] += e // 2  # exponent of the squared variable
        else:
            pi_power += int(match.group("pj") or 1)
    if coeff is None:
        raise ValueError("term %r lacks a rational coefficient" % text)
    return tuple(exponents), PiRat.pi2(pi_power, coeff)


def parse_volume_table(text: str) -> VolumeTable:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        try:
            head, _, body = line.partition(":")
            tag, g, n = head.split()
            if tag != "V":
                raise ValueError("records start with 'V'")
            g, n = int(g), int(n)
            terms = {}
            for term_text in body.split(";"):
                e, c = _parse_term(term_text.strip(), n)
                terms[e] = terms.get(e, PiRat(0)) + c
            poly = PiPoly(n, terms)
        except ValueError as exc:
            raise ValueError("volume table line %d: %s" % (lineno, exc)) from None
        if not poly.coefficients_positive():
            raise ValueError(
                "volume table line %d: coefficients must be strictly positive"
                % lineno
            )
        if poly.total_degree() > max(3 * g - 3 + n, 0):
            raise ValueError(
                "volume table line %d: degree %d exceeds %d"
                % (lineno, poly.total_degree(), 3 * g - 3 + n)
            )
        entries[(g, n)] = poly
    return VolumeTable(entries)


def volume_table_load(path=None) -> VolumeTable:
    """Load a volume table; with no path, the bundled table."""
    if path is None:
        text = (
            resources.files("multicurve").joinpath("data/volumes.txt").read_text()
        )
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_volume_table(text)
