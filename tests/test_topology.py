from collections import Counter

import pytest

from multicurve.topology import (
    CUSP,
    PantsDecomposition,
    SurfaceType,
    builtin_surface,
    validate_decomposition,
)


def test_surface_type_derived_quantities():
    s = SurfaceType(1, 1)
    assert s.cuff_count == 1
    assert s.dim == 2
    assert s.name == "S11"
    assert SurfaceType(2, 0).cuff_count == 3
    assert SurfaceType(0, 4).dim == 2


def test_dim_is_twice_cuff_count():
    for g, n in [(1, 1), (0, 4), (1, 2), (2, 0), (0, 5), (3, 2)]:
        s = SurfaceType(g, n)
        assert s.dim == 2 * s.cuff_count


def test_non_hyperbolic_surfaces_rejected():
    for g, n in [(0, 0), (0, 1), (0, 2), (1, 0)]:
        with pytest.raises(ValueError, match="hyperbolic"):
            SurfaceType(g, n)
    with pytest.raises(ValueError):
        SurfaceType(-1, 5)


def test_builtin_s11():
    surf, dec = builtin_surface("S11")
    assert (surf.genus, surf.punctures, surf.cuff_count) == (1, 1, 1)
    assert len(dec.regions) == 1
    assert Counter(dec.regions[0]) == Counter({1: 2, CUSP: 1})


def test_builtin_s04():
    surf, dec = builtin_surface("S04")
    assert (surf.genus, surf.punctures, surf.cuff_count) == (0, 4, 1)
    assert len(dec.regions) == 2
    for r in dec.regions:
        assert Counter(r) == Counter({1: 1, CUSP: 2})


def test_builtin_s20():
    surf, dec = builtin_surface("S20")
    assert (surf.genus, surf.punctures, surf.cuff_count) == (2, 0, 3)
    assert len(dec.regions) == 2


def test_builtin_region_and_slot_counts():
    # regions = 2g-2+n, non-cusp slots = 2N for every builtin
    for name in ("S11", "S04", "S12", "S20"):
        surf, dec = builtin_surface(name)
        g, n = surf.genus, surf.punctures
        assert len(dec.regions) == 2 * g - 2 + n
        slots = [s for r in dec.regions for s in r if s != CUSP]
        assert len(slots) == 2 * surf.cuff_count


def test_unknown_builtin():
    with pytest.raises(KeyError, match="unknown surface"):
        builtin_surface("S99")


def test_validate_canonical_decompositions():
    for name in ("S11", "S04", "S12", "S20"):
        _, dec = builtin_surface(name)
        assert validate_decomposition(dec) is None


def test_validate_cuff_multiplicity():
    # cuff 1 used three times, cuff 2 once; counts precede multiplicity in
    # the report order, so the cusp totals are kept valid here
    surf = SurfaceType(1, 2)
    p = object.__new__(PantsDecomposition)
    object.__setattr__(p, "surface", surf)
    object.__setattr__(p, "regions", ((1, 1, 1), (2, CUSP, CUSP)))
    report = validate_decomposition(p)
    assert report is not None and report.startswith("cuff multiplicity")


def test_validate_overused_cuff_always_flagged():
    # an S04 decomposition where cuff 1 appears three times cannot keep the
    # cusp total at 4, so some violation is always reported
    surf = SurfaceType(0, 4)
    p = object.__new__(PantsDecomposition)
    object.__setattr__(p, "surface", surf)
    object.__setattr__(p, "regions", ((1, 1, CUSP), (1, CUSP, CUSP)))
    assert validate_decomposition(p) is not None


def test_validate_region_arity():
    surf = SurfaceType(2, 0)
    p = object.__new__(PantsDecomposition)
    object.__setattr__(p, "surface", surf)
    object.__setattr__(p, "regions", ((1, 2, 3, 3), (1, 2)))
    report = validate_decomposition(p)
    assert report is not None and report.startswith("region arity")


def test_validate_region_count_and_cusps():
    surf = SurfaceType(1, 1)
    p = object.__new__(PantsDecomposition)
    object.__setattr__(p, "surface", surf)
    object.__setattr__(p, "regions", ())
    assert validate_decomposition(p).startswith("region count")

    object.__setattr__(p, "regions", ((1, 1, 1),))
    assert validate_decomposition(p).startswith("cusp count")


def test_constructor_rejects_invalid_decomposition():
    with pytest.raises(ValueError, match="invalid pants decomposition"):
        PantsDecomposition(SurfaceType(1, 1), ((1, CUSP, CUSP),))
