"""Chart cells, exact cell integrals, and the Monte Carlo integrators."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from multicurve import torus, wpcells
from multicurve.hypfun import FNPoint
from multicurve.topology import builtin_surface
from multicurve.wpcells import (
    CellSpec,
    MCResult,
    cell_volume,
    f2_cell_integral,
    f_on_cell,
    f_power_mc,
    mc_integrate,
    mc_result,
    sample_cell,
    sample_pants_gluing,
)

S11 = builtin_surface("S11")[0]
S12 = builtin_surface("S12")[0]
S20 = builtin_surface("S20")[0]
SEED = 20260814
BERS = 2 * math.acosh(1.5)


def quad_thin_factor(power, floor, eps):
    # oracle: ∫_floor^eps l · R(l)^power dl via u = -log l
    u_hi = -math.log(floor)
    u_lo = -math.log(eps)
    val, err = integrate.quad(
        lambda u: math.exp((power - 2.0) * u) / u**power, u_lo, u_hi
    )
    assert err < 1e-7 * abs(val)
    return val


def test_cellspec_validation():
    CellSpec(S12, 0)
    CellSpec(S12, 2)
    with pytest.raises(ValueError):
        CellSpec(S12, 3)
    with pytest.raises(ValueError):
        CellSpec(S12, -1)
    with pytest.raises(ValueError):
        CellSpec(S12, 1, eps=1.5)
    with pytest.raises(ValueError):
        CellSpec(S12, 1, bers_bound=0.9)
    with pytest.raises(ValueError):
        CellSpec(S12, 1, thin_floor=0.2)  # floor >= eps
    assert CellSpec(S12, 1).thick_count == 1


def test_cell_volume_frozen():
    assert cell_volume(CellSpec(S11, 0)) == pytest.approx(
        1.8475185646175554, rel=1e-14
    )
    assert cell_volume(CellSpec(S11, 1)) == pytest.approx(0.005, rel=1e-14)
    # floors shave the thin factor
    spec = CellSpec(S11, 1, thin_floor=0.05)
    assert cell_volume(spec) == pytest.approx((0.01 - 0.0025) / 2, rel=1e-14)


def test_cells_partition_the_box():
    # sum over thin patterns recovers the full box volume; with one cuff the
    # box is {0 < l <= bers, 0 <= tau < l} of area bers²/2
    total = cell_volume(CellSpec(S11, 0)) + cell_volume(CellSpec(S11, 1))
    assert total == pytest.approx(BERS**2 / 2, rel=1e-14)
    # same partition with three cuffs, counting patterns by binomial weight
    total3 = sum(
        math.comb(3, k) * cell_volume(CellSpec(S20, k)) for k in range(4)
    )
    assert total3 == pytest.approx((BERS**2 / 2) ** 3, rel=1e-13)


def test_f2_cell_integral_values():
    # thin factor with no floor: -1/log(eps) = 1/log 10
    spec = CellSpec(S11, 1)
    assert f2_cell_integral(spec) == pytest.approx(0.43429448190325176, rel=1e-15)
    # quadrature oracle for a floored thin cell
    floored = CellSpec(S11, 1, thin_floor=1e-3)
    assert f2_cell_integral(floored) == pytest.approx(
        quad_thin_factor(2.0, 1e-3, 0.1), rel=1e-10
    )
    assert f2_cell_integral(floored) == pytest.approx(0.289530, abs=1e-6)
    # k = 0 cell: F ≡ 1, integral is the volume
    assert f2_cell_integral(CellSpec(S11, 0)) == cell_volume(CellSpec(S11, 0))


def test_f2_cell_integral_monotone_in_floor():
    vals = [
        f2_cell_integral(CellSpec(S11, 1, thin_floor=f))
        for f in (1e-2, 1e-3, 1e-4, 0.0)
    ]
    assert vals == sorted(vals)
    # no-floor value is the supremum of the floored ones
    assert vals[-1] - vals[-2] < 0.11


def test_f_on_cell():
    spec = CellSpec(S12, 1)
    fn = FNPoint((0.05, 1.0), (0.0, 0.0))
    assert f_on_cell(spec, fn) == pytest.approx(1.0 / (0.05 * abs(math.log(0.05))))
    assert f_on_cell(CellSpec(S12, 0), fn) == 1.0


def test_mcresult_validation():
    with pytest.raises(ValueError):
        MCResult(estimate=1.0, stderr=-0.1, samples=10, seed=0)


def test_mc_integrate_constant_is_exact():
    spec = CellSpec(S11, 0)
    res = mc_integrate(lambda fn: 1.0, spec, 64, SEED)
    assert res.estimate == cell_volume(spec)
    assert res.stderr == 0.0
    assert res.samples == 64 and res.seed == SEED


def test_mc_integrate_rejects_tiny_counts():
    with pytest.raises(ValueError):
        mc_integrate(lambda fn: 1.0, CellSpec(S11, 0), 1, SEED)


def test_mc_integrate_nonfinite_functional():
    spec = CellSpec(S11, 0)
    with pytest.raises(ArithmeticError, match="lengths="):
        mc_integrate(lambda fn: math.inf, spec, 8, SEED)


def test_mc_integrate_threads_do_not_change_result():
    spec = CellSpec(S12, 1)
    f = lambda fn: fn.lengths[0] + fn.twists[1]
    a = mc_integrate(f, spec, 500, SEED, threads=1)
    b = mc_integrate(f, spec, 500, SEED, threads=4)
    assert a == b


def test_mc_integrate_chart_additivity():
    # ∫ l dl dtau over the box = ∫ l² dl = bers³/3, split across the two cells
    exact = BERS**3 / 3
    total = 0.0
    var = 0.0
    for k in (0, 1):
        res = mc_integrate(
            lambda fn: fn.lengths[0], CellSpec(S11, k), 40_000, SEED + k
        )
        total += res.estimate
        var += res.stderr**2
    assert abs(total - exact) < 3 * math.sqrt(var)


def test_f_power_mc_matches_exact_f2():
    spec = CellSpec(S11, 1)
    res = f_power_mc(spec, 2.0, 20_000, SEED)
    exact = f2_cell_integral(spec)
    # frozen anchor: this seed lands 0.55σ from the exact value
    assert res.estimate == pytest.approx(0.4333084093940512, rel=1e-12)
    assert res.stderr == pytest.approx(0.0017770089690337986, rel=1e-9)
    assert abs(res.estimate - exact) < 3 * res.stderr


def test_f_power_mc_no_thin_cuffs_is_exact():
    spec = CellSpec(S12, 0)
    res = f_power_mc(spec, 2.0, 100, SEED)
    assert res.estimate == cell_volume(spec)
    assert res.stderr == 0.0


def test_f_power_mc_heavy_powers_against_quadrature():
    # F^2.5 with a floor: compare to the quadrature oracle at two floors
    for floor, truth in ((1e-2, 0.621530), (1e-4, 1.859770)):
        spec = CellSpec(S11, 1, thin_floor=floor)
        assert quad_thin_factor(2.5, floor, 0.1) == pytest.approx(truth, abs=2e-6)
        res = f_power_mc(spec, 2.5, 60_000, SEED)
        assert abs(res.estimate - truth) < 3 * res.stderr
        assert res.stderr < 0.05 * truth


def test_f_power_mc_diverges_as_floor_drops():
    # the F^2.5 chart integral has no floor-free limit; the ladder grows
    floors = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    truths = (0.621530, 1.145829, 1.859770, 3.068397, 5.391270)
    estimates = []
    for floor, truth in zip(floors, truths):
        res = f_power_mc(CellSpec(S11, 1, thin_floor=floor), 2.5, 60_000, SEED)
        assert abs(res.estimate - truth) < 3 * res.stderr, floor
        estimates.append(res.estimate)
    assert estimates == sorted(estimates)


def test_f_power_mc_rejects_unfloored_heavy_power():
    with pytest.raises(ValueError, match="thin_floor"):
        f_power_mc(CellSpec(S11, 1), 2.5, 100, SEED)
    # but power 2 at floor 0 is fine by design
    f_power_mc(CellSpec(S11, 1), 2.0, 100, SEED)
    with pytest.raises(ValueError):
        f_power_mc(CellSpec(S11, 1), 2.0, 1, SEED)


def test_sample_cell_determinism_and_ranges():
    spec = CellSpec(S12, 1, thin_floor=0.01)
    a = list(sample_cell(spec, 200, SEED))
    b = list(sample_cell(spec, 200, SEED))
    assert a == b
    c = list(sample_cell(spec, 200, SEED + 1))
    assert a != c
    for fn in a:
        assert 0.01 < fn.lengths[0] <= 0.1
        assert 0.1 < fn.lengths[1] <= BERS
        for ell, tau in zip(fn.lengths, fn.twists):
            assert 0.0 <= tau < ell
    with pytest.raises(ValueError):
        next(sample_cell(spec, 0, SEED))


def test_sample_cell_distributions():
    # length density on a cell is proportional to l, so l² is uniform on
    # (eps², bers²]; twist fraction tau/l is uniform on [0, 1)
    spec = CellSpec(S11, 0)
    pts = list(sample_cell(spec, 4000, SEED))
    l2 = [
        (fn.lengths[0] ** 2 - 0.1**2) / (BERS**2 - 0.1**2) for fn in pts
    ]
    assert stats.kstest(l2, "uniform").pvalue > 0.01
    frac = [fn.twists[0] / fn.lengths[0] for fn in pts]
    assert stats.kstest(frac, "uniform").pvalue > 0.01
    assert np.mean(frac) == pytest.approx(0.5, abs=0.03)


def test_sample_pants_gluing_simplex():
    pts = list(sample_pants_gluing(S20, 6.0, 4000, SEED))
    sums = [sum(fn.lengths) for fn in pts]
    assert max(sums) <= 6.0
    # sum of N coordinates of a uniform simplex point has mean L·N/(N+1)
    expected = 6.0 * 3 / 4
    se = np.std(sums, ddof=1) / math.sqrt(len(sums))
    assert abs(np.mean(sums) - expected) < 3 * se
    for fn in pts[:100]:
        for ell, tau in zip(fn.lengths, fn.twists):
            assert ell > 0 and 0 <= tau < ell


def test_sample_pants_gluing_marginal_uniformity():
    # with one cuff the simplex is just (0, L]: lengths uniform
    pts = list(sample_pants_gluing(S11, 2.0, 4000, SEED))
    ells = [fn.lengths[0] / 2.0 for fn in pts]
    assert stats.kstest(ells, "uniform").pvalue > 0.01


def test_sample_pants_gluing_validation_and_determinism():
    a = [fn.lengths for fn in sample_pants_gluing(S12, 3.0, 50, SEED)]
    b = [fn.lengths for fn in sample_pants_gluing(S12, 3.0, 50, SEED)]
    assert a == b
    with pytest.raises(ValueError):
        next(sample_pants_gluing(S12, 0.0, 5, SEED))
    with pytest.raises(ValueError):
        next(sample_pants_gluing(S12, 3.0, 0, SEED))


# --- the sampling layer against the per-row construction it replaced ------
#
# The references below read the same draws one numpy row (or scalar) at a
# time, as the sampling layer did before it validated each batch once and
# read draws with tolist(); results must agree bit for bit.


def ref_mc_result(values, volume, seed):
    count = len(values)
    mean = math.fsum(values) / count
    var = math.fsum((v - mean) ** 2 for v in values) / (count - 1)
    return MCResult(volume * mean, volume * math.sqrt(var / count), count, seed)


def ref_points(ells, taus):
    return [FNPoint(tuple(ells[i]), tuple(taus[i])) for i in range(len(ells))]


def ref_pants_draws(surface, L, count, seed):
    rng = wpcells._rng(seed, 0x917E)
    N = surface.cuff_count
    gammas = np.maximum(rng.standard_exponential((count, N + 1)), np.finfo(float).tiny)
    ells = L * gammas[:, :N] / gammas.sum(axis=1, keepdims=True)
    return ells, ells * rng.random((count, N))


def ref_mc_integrate(f, spec, count, seed):
    points = ref_points(*wpcells._draw_cell(spec, count, seed))
    return ref_mc_result([f(p) for p in points], cell_volume(spec), seed)


def ref_mc_moduli(functional, samples, seed):
    ells, taus = torus.sample_bers_box(samples, seed)
    values = []
    for i in range(samples):
        X = torus.TorusPoint(ells[i], taus[i])
        w = torus._systole_weight(X, torus.SYMMETRY_FACTOR, torus.BERS_11)
        values.append(0.0 if w == 0.0 else w * functional(X))
    return ref_mc_result(values, torus.BERS_11**2 / 2.0, seed)


def result_bits(r):
    return (r.estimate.hex(), r.stderr.hex(), r.samples, r.seed)


def point_bits(points):
    out = []
    for p in points:
        assert all(type(v) is float for v in p.lengths + p.twists)
        out.append((tuple(v.hex() for v in p.lengths), tuple(v.hex() for v in p.twists)))
    return out


CELLS = [
    CellSpec(S11, 1, thin_floor=1e-3),
    CellSpec(S11, 0),
    CellSpec(S12, 1),
    CellSpec(S20, 2, thin_floor=1e-2),
]


@pytest.mark.parametrize("spec", CELLS)
def test_sample_cell_is_the_per_row_construction(spec):
    # 3000 rows cross chunk boundaries of the batch reader
    for count, seed in ((1, SEED), (300, SEED + 1), (3000, 981)):
        ref = ref_points(*wpcells._draw_cell(spec, count, seed))
        assert point_bits(sample_cell(spec, count, seed)) == point_bits(ref)


@pytest.mark.parametrize("surface", [S11, S12, S20])
def test_sample_pants_gluing_is_the_per_row_construction(surface):
    for count, seed in ((1, SEED), (3000, 982)):
        ref = ref_points(*ref_pants_draws(surface, 3.0, count, seed))
        assert point_bits(sample_pants_gluing(surface, 3.0, count, seed)) == point_bits(ref)


@pytest.mark.parametrize("spec", CELLS)
def test_mc_integrate_is_the_per_row_construction(spec):
    seen = set()

    def f(fn):
        seen.update(map(type, fn.lengths + fn.twists))
        return f_on_cell(spec, fn) ** 2 + sum(fn.twists) * fn.lengths[-1]

    for count, seed in ((2, SEED), (4000, 981)):
        ref = ref_mc_integrate(f, spec, count, seed)
        assert result_bits(mc_integrate(f, spec, count, seed)) == result_bits(ref)
    assert seen == {float}


@pytest.mark.parametrize("power, floor", [(2.0, 0.0), (2.0, 1e-3), (2.5, 1e-4)])
def test_f_power_mc_is_the_per_scalar_summary(monkeypatch, power, floor):
    captured = []

    def capture(values, volume, seed):
        captured.append(values)
        return mc_result(values, volume, seed)

    monkeypatch.setattr(wpcells, "mc_result", capture)
    spec = CellSpec(S11, 1, thin_floor=floor)
    for count, seed in ((2, SEED), (20_000, 981), (100_000, 982)):
        res = f_power_mc(spec, power, count, seed)
        vals = captured.pop()
        assert isinstance(vals, np.ndarray) and len(vals) == count
        assert result_bits(res) == result_bits(ref_mc_result(vals, 1.0, seed))


def test_mc_result_reads_arrays_and_lists_alike():
    rng = np.random.default_rng(SEED)
    chunk = wpcells._CHUNK
    for n in (2, chunk - 1, chunk, chunk + 1, 3 * chunk + 5, 100_000):
        vals = rng.pareto(1.5, n)  # heavy tail: squares round in many ways
        ref = result_bits(ref_mc_result(vals, 0.7, SEED))
        assert result_bits(mc_result(vals, 0.7, SEED)) == ref
        assert result_bits(mc_result(vals.tolist(), 0.7, SEED)) == ref
    # one exact sum across chunks: 2^53 + (chunk - 1) rounds to 2^53 + chunk,
    # so sums rounded chunk by chunk would be off by one here
    vals = np.ones(chunk + 1)
    vals[0], vals[-1] = 2.0**53, -(2.0**53)
    assert result_bits(mc_result(vals, 1.0, SEED)) == result_bits(ref_mc_result(vals, 1.0, SEED))
    assert mc_result(vals, chunk + 1.0, SEED).estimate == chunk - 1.0


@pytest.mark.parametrize("seed", [SEED, 981, 982])
def test_mc_moduli_is_the_per_row_construction(seed):
    functionals = (
        lambda X: X.ell ** 2.5 + 3.0 * X.tau,
        lambda X: torus.count_s(X, 1, 8.0) / X.ell,
    )
    for functional in functionals:
        ref = ref_mc_moduli(functional, 200, seed)
        assert result_bits(torus.mc_moduli(functional, 200, seed)) == result_bits(ref)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
def test_from_draws_rejects_lengths_like_the_constructor(bad):
    ells = np.full((3, 2), 0.5)
    ells[1, 1] = bad
    taus = np.zeros((3, 2))
    with pytest.raises(ValueError) as single:
        FNPoint((0.5, bad), (0.0, 0.0))
    with pytest.raises(ValueError) as batch:
        FNPoint.from_draws(ells, taus)
    assert str(batch.value) == str(single.value)


def test_from_draws_points_equal_constructed_points():
    ells = np.array([[0.5, 1.5], [0.25, 2.0]])
    taus = np.array([[0.1, -0.2], [0.0, 1.0]])
    points = list(FNPoint.from_draws(ells, taus))
    assert points == ref_points(ells, taus)
    assert {hash(p) for p in points} == {hash(p) for p in ref_points(ells, taus)}
    with pytest.raises(ValueError, match="one twist per cuff"):
        FNPoint.from_draws(ells, taus[:, :1])
