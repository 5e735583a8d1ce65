"""Surface types and pants decompositions as combinatorial gluing data.

A pants decomposition of S_{g,n} is stored purely combinatorially: a list of
2g-2+n regions (pairs of pants), each a triple whose entries are either a
cuff index in 1..N (N = 3g-3+n) or the cusp marker "*".  Each cuff index
appears exactly twice across all slots; cusp markers appear n times.  This
is all that membership tests and combinatorial lengths ever need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CUSP = "*"


@dataclass(frozen=True)
class SurfaceType:
    genus: int  # g >= 0
    punctures: int  # n >= 0

    def __post_init__(self):
        if self.genus < 0 or self.punctures < 0:
            raise ValueError("genus and punctures must be nonnegative")
        if 2 - 2 * self.genus - self.punctures >= 0:
            raise ValueError(
                "not hyperbolic: need 2 - 2g - n < 0, got g=%d n=%d"
                % (self.genus, self.punctures)
            )

    @property
    def cuff_count(self) -> int:
        """N = 3g - 3 + n, the number of cuffs of any pants decomposition."""
        return 3 * self.genus - 3 + self.punctures

    @property
    def dim(self) -> int:
        """Real dimension 6g - 6 + 2n of the space of measured laminations."""
        return 6 * self.genus - 6 + 2 * self.punctures

    @property
    def name(self) -> str:
        return "S%d%d" % (self.genus, self.punctures)


@dataclass(frozen=True)
class PantsDecomposition:
    surface: SurfaceType
    # 2g-2+n triples; entries are cuff indices 1..N or the cusp marker "*"
    regions: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(tuple(r) for r in self.regions))
        report = validate_decomposition(self)
        if report is not None:
            raise ValueError("invalid pants decomposition: " + report)

    def region_cuffs(self, j: int) -> tuple:
        """Non-cusp slots (with multiplicity) of region j."""
        return tuple(s for s in self.regions[j] if s != CUSP)


def validate_decomposition(p: PantsDecomposition) -> str | None:
    """Check the combinatorial invariants; return None if ok, else the first
    violated constraint as a short report string."""
    g, n = p.surface.genus, p.surface.punctures
    N = p.surface.cuff_count
    if len(p.regions) != 2 * g - 2 + n:
        return "region count: expected %d, got %d" % (2 * g - 2 + n, len(p.regions))
    for j, r in enumerate(p.regions):
        if len(r) != 3:
            return "region arity: region %d has %d slots, expected 3" % (j, len(r))
        for s in r:
            if s == CUSP:
                continue
            if not isinstance(s, int) or not (1 <= s <= N):
                return "slot value: region %d contains %r, expected 1..%d or '*'" % (
                    j,
                    s,
                    N,
                )
    slots = [s for r in p.regions for s in r]
    cusps = sum(1 for s in slots if s == CUSP)
    if cusps != n:
        return "cusp count: expected %d markers, got %d" % (n, cusps)
    for i in range(1, N + 1):
        mult = sum(1 for s in slots if s == i)
        if mult != 2:
            return "cuff multiplicity: cuff %d appears %d times, expected 2" % (i, mult)
    return None


# Canonical decompositions for the small surfaces used throughout.  Regions
# are ordered triples; the convention is fixed once and the length-comparison
# constant is calibrated against it.
_BUILTINS = {
    "S11": (1, 1, ((1, 1, CUSP),)),
    "S04": (0, 4, ((1, CUSP, CUSP), (1, CUSP, CUSP))),
    "S12": (1, 2, ((1, 1, 2), (2, CUSP, CUSP))),
    "S20": (2, 0, ((1, 2, 3), (1, 2, 3))),
}


def builtin_surface(name: str) -> tuple[SurfaceType, PantsDecomposition]:
    """Return a builtin surface and its canonical pants decomposition.

    Known names: S11, S04, S12, S20.
    """
    try:
        g, n, regions = _BUILTINS[name]
    except KeyError:
        raise KeyError(
            "unknown surface %r (available: %s)" % (name, ", ".join(sorted(_BUILTINS)))
        ) from None
    surf = SurfaceType(g, n)
    return surf, PantsDecomposition(surf, regions)

