"""Closed-form ball measures against the lattice-point estimator."""

import math

import pytest

from multicurve.dtlattice import CombWeights
from multicurve.hypfun import collar_width
from multicurve.thurston import comb_ball_measure, lattice_ball_estimate
from multicurve.topology import builtin_surface


def test_unit_weights_s11():
    surf, _ = builtin_surface("S11")
    # 2^(1-1) * 2/2! * 1 = 1
    assert comb_ball_measure(surf, CombWeights((1.0,), (1.0,))) == 1.0


def test_geometric_weights_s11():
    surf, _ = builtin_surface("S11")
    ell = 2.0 * math.asinh(1.0)
    w = collar_width(ell)
    assert w == pytest.approx(0.881373587019543, rel=1e-15)
    val = comb_ball_measure(surf, CombWeights((w,), (ell,)))
    assert val == pytest.approx(0.6436502487800063, rel=1e-13)
    # same number from the rounded constants, to their precision
    rounded = comb_ball_measure(surf, CombWeights((0.88137,), (1.76275,)))
    assert rounded == pytest.approx(0.64368, abs=5e-5)


def test_unit_weights_s04():
    surf, _ = builtin_surface("S04")
    # 2^(0-1) * 2/2! = 1/2
    assert comb_ball_measure(surf, CombWeights((1.0,), (1.0,))) == 0.5


def test_measure_dimension_check():
    surf, _ = builtin_surface("S12")
    with pytest.raises(ValueError):
        comb_ball_measure(surf, CombWeights((1.0,), (1.0,)))


def test_scaling_homogeneity():
    # weights (cw, cl) scale the measure by c^(-2N)
    surf, _ = builtin_surface("S20")
    base = CombWeights((0.75, 1.5, 2.5), (1.25, 0.5, 1.0))
    scaled = CombWeights(
        tuple(2 * w for w in base.width), tuple(2 * l for l in base.length)
    )
    assert comb_ball_measure(surf, scaled) == pytest.approx(
        comb_ball_measure(surf, base) / 2 ** 6, rel=1e-14
    )


def test_lattice_estimate_small_ball():
    surf, dec = builtin_surface("S11")
    wts = CombWeights((1.0,), (1.0,))
    # 6 points in the radius-2 ball
    assert lattice_ball_estimate(dec, wts, 2.0) == pytest.approx(6 / 4)
    with pytest.raises(ValueError):
        lattice_ball_estimate(dec, wts, 0.0)


def test_lattice_estimate_converges_s11():
    surf, dec = builtin_surface("S11")
    for wts in (CombWeights((1.0,), (1.0,)), CombWeights((0.9,), (1.4,))):
        target = comb_ball_measure(surf, wts)
        est = lattice_ball_estimate(dec, wts, 400.0)
        assert est == pytest.approx(target, rel=2e-2)


def test_lattice_estimate_converges_s04():
    surf, dec = builtin_surface("S04")
    wts = CombWeights((0.75,), (1.25,))
    target = comb_ball_measure(surf, wts)
    assert lattice_ball_estimate(dec, wts, 400.0) == pytest.approx(target, rel=2e-2)


def test_lattice_estimate_converges_s12():
    surf, dec = builtin_surface("S12")
    wts = CombWeights((0.75, 1.5), (1.25, 0.5))
    target = comb_ball_measure(surf, wts)
    assert lattice_ball_estimate(dec, wts, 60.0) == pytest.approx(target, rel=4e-2)


def test_lattice_error_decays_like_one_over_L():
    # boundary effects are codimension one: L * |est - target| stays bounded
    surf, dec = builtin_surface("S11")
    wts = CombWeights((1.0,), (1.0,))
    target = comb_ball_measure(surf, wts)
    bounds = []
    for L in (50.0, 100.0, 200.0, 400.0):
        bounds.append(L * abs(lattice_ball_estimate(dec, wts, L) - target))
    assert max(bounds) < 4.0
