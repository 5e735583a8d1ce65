"""Chart cells, exact cell integrals, and the Monte Carlo integrators."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from multicurve import hypfun, torus, wpcells
from multicurve.hypfun import FNPoint
from multicurve.topology import SurfaceType, builtin_surface
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


def test_mc_integrate_streams_its_points():
    # the points are mapped as they are drawn, not listed first: holding
    # all 200,000 FNPoints of this run peaked at 64 MB, streaming at 9 MB
    spec = CellSpec(S11, 1, thin_floor=1e-3)
    tracemalloc.start()
    try:
        res = mc_integrate(lambda fn: f_on_cell(spec, fn) ** 2, spec, 200000, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.samples == 200000
    assert peak < 16 * 2**20, peak


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


# --- the sampling layer against the per-row construction it replaced ------
#
# The references below read the same draws one numpy row (or scalar) at a
# time, as the sampling layer did before it validated each batch once and
# read draws with tolist(); results must agree bit for bit.


def ref_mc_result(values, volume, seed):
    count = len(values)
    mean = math.fsum(values) / count
    var = math.fsum(d * d for d in [v - mean for v in values]) / (count - 1)
    if var == math.inf:
        raise OverflowError("squared deviations overflow the float range")
    return MCResult(volume * mean, volume * math.sqrt(var / count), count, seed)


def ref_points(ells, taus):
    return [FNPoint(tuple(ells[i]), tuple(taus[i])) for i in range(len(ells))]


def ref_mc_integrate(f, spec, count, seed):
    points = ref_points(*wpcells._draw_cell(spec, count, seed))
    return ref_mc_result([f(p) for p in points], cell_volume(spec), seed)


def ref_mc_moduli(functional, samples, seed):
    ells, taus = torus.sample_bers_box(samples, seed)
    values = []
    for i in range(samples):
        X = torus.TorusPoint(ells[i], taus[i])
        w = torus._systole_weight(X)
        values.append(0.0 if w == 0.0 else w * functional(X))
    return ref_mc_result(values, torus.BERS_11**2 / 2.0, seed)


def result_bits(r):
    return (r.estimate.hex(), r.stderr.hex(), r.samples, r.seed)


def point_bits(points):
    out = []
    for p in points:
        assert type(p.lengths) is tuple and type(p.twists) is tuple
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
    # N = 1, 2 and 3 cuffs; the larger counts end one row before, at and one
    # row after a chunk boundary of the batch reader, or well past one
    chunk = hypfun._CHUNK
    for count, seed in ((1, SEED), (300, SEED + 1), (chunk - 1, 983), (2 * chunk, 984),
                        (2 * chunk + 1, 985), (3000, 981)):
        ref = ref_points(*wpcells._draw_cell(spec, count, seed))
        assert point_bits(sample_cell(spec, count, seed)) == point_bits(ref)


def test_sample_cell_without_cuffs_gives_empty_rows():
    # a pair of pants has no cuffs: zipping no columns must still give rows
    spec = CellSpec(SurfaceType(0, 3), 0)
    assert [(p.lengths, p.twists) for p in sample_cell(spec, 3, SEED)] == [((), ())] * 3
    assert mc_integrate(lambda fn: 2.0, spec, 5, SEED) == MCResult(2.0, 0.0, 5, SEED)


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
    chunk = hypfun._CHUNK
    short, block = wpcells._SHORT, wpcells._BLOCK
    for n in (2, chunk - 1, chunk, chunk + 1, 3 * chunk + 5, 100_000, short - 1, short,
              short + 1, block - 1, block, block + 1, 3 * block + 1):
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


def test_mc_integrate_stops_at_the_first_non_finite_value():
    spec = CELLS[3]
    points = list(sample_cell(spec, 50, SEED))
    seen = []

    def f(fn):
        seen.append(fn)
        return {7: math.nan, 30: math.inf}.get(len(seen) - 1, 1.0)

    with pytest.raises(ArithmeticError) as err:
        mc_integrate(f, spec, 50, SEED)
    assert seen == points[:8]
    assert str(err.value) == "functional returned nan at lengths=%s twists=%s" % (
        points[7].lengths, points[7].twists)


def test_mc_result_squares_as_python_does():
    # values whose squared deviations lie near a tie of two floats, where a
    # C library's pow(d, 2.0) may round apart from the one rounded d * d
    for hexes in (("0x1.661d4e3a6c052p-1", "0x1.77c6ed1ec376ep-2", "0x1.9d08124d482a4p-1"),
                  ("0x1.28eae7d171498p-1", "0x1.9dab00285cb30p-2", "0x1.dbf5903a11424p-1"),
                  ("0x1.de58c22453dacp-1", "0x1.96cc8b96f229cp-3", "0x1.4ab22f3a75baep-2")):
        vals = [float.fromhex(h) for h in hexes]
        ref = result_bits(ref_mc_result(vals, 1.0, SEED))
        assert result_bits(mc_result(vals, 1.0, SEED)) == ref
        assert result_bits(mc_result(np.array(vals), 1.0, SEED)) == ref


def test_mc_result_raises_where_a_square_overflows(capfd):
    # a square past the float range reads inf, and an infinite variance
    # raises OverflowError, while a NaN one passes silently; on the block
    # route too, where fsum's own OverflowError comes first if the squares
    # before that one already overflow their sum
    n = wpcells._SHORT + 5
    for values in ([1e200, -1e200, 0.0], [1e200, -1e200] + [0.0] * n,
                   [1e154, 1e154, -1e154, -1e154, 1e200, -1e200] + [0.0] * n):
        with pytest.raises(OverflowError) as ref:
            ref_mc_result(values, 1.0, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for vals in (values, np.array(values)):
                with pytest.raises(OverflowError) as err:
                    mc_result(vals, 1.0, 1)
                assert err.value.args == ref.value.args
        assert caught == [] and capfd.readouterr().err == ""
    # an infinite value is not an overflow: it reads inf and NaN as before
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for vals in ([math.inf, 1.0, 2.0], [1.0, math.nan], [1e-160, 0.0, 3e-170]):
            for as_array in (vals, np.array(vals)):
                assert repr(mc_result(as_array, 1.0, 1)) == repr(ref_mc_result(vals, 1.0, 1))
    assert caught == []


@pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
def test_f_power_mc_rejects_a_non_finite_power(power):
    with pytest.raises(ValueError, match="power must be finite"):
        f_power_mc(CellSpec(S11, 1, thin_floor=1e-3), power, 10, SEED)


@pytest.mark.parametrize("spec", [CellSpec(S11, 1, thin_floor=1e-3), CellSpec(S12, 2, thin_floor=1e-2)])
def test_f_power_mc_raises_where_weights_are_not_finite(capfd, spec):
    # F^802 overflowed to inf·0 = NaN weights and printed a NaN estimate
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ArithmeticError) as err:
            f_power_mc(spec, 802.0, 1000, SEED)
    assert str(err.value) == ("F^802.0 weights are not finite over thin lengths above floor %r"
                              % spec.thin_floor)
    assert caught == [] and capfd.readouterr().err == ""


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


# --- mc_result's block route ---------------------------------------------
#
# From wpcells._SHORT values on, mc_result squares deviations as numpy's d * d
# and sums exactly in float64 blocks; every result must still be
# ref_mc_result's, raised errors included.


def block_sum(values):
    """wpcells._exact_sum over the blocks mc_result reads; None defers to fsum."""
    block = wpcells._BLOCK
    blocks = (values[lo : lo + block] for lo in range(0, len(values), block))
    return wpcells._exact_sum(blocks, len(values))


def outcome(summary, values):
    """The bits of a summary of values, or the type and args of its error."""
    try:
        return result_bits(summary(values, 1.0, SEED))
    except (ArithmeticError, ValueError) as err:
        return type(err).__name__, err.args


def plain_sums():
    """Seeded arrays whose sums the blocks take exactly."""
    rng = np.random.default_rng(SEED)
    block = wpcells._BLOCK
    n = 2 * block + 7
    signs = rng.choice([-1.0, 1.0], n)
    yield "pareto 0.7", signs * rng.pareto(0.7, n)
    yield "pareto 1.5", rng.pareto(1.5, n)
    spread = signs * 10.0 ** rng.uniform(-310, 300, n)
    assert (abs(spread) < 2.0**-1022).sum() > 10  # subnormals among them
    yield "1e-310 to 1e300", spread
    yield "subnormals", signs * rng.integers(1, 2**20, n) * 2.0**-1074
    # 2^53 in the first block cancels in the third, ones in between: each
    # block's own rounded sum would lose them
    ones = np.ones(3 * block)
    ones[block - 1], ones[2 * block] = 2.0**53, -(2.0**53)
    yield "2^53 cancels across blocks", ones
    # exact sums 2^53 + 1 (a tie: to even), and 2^53 + 1 ± 2^-60 past it
    for tiny in (0.0, 2.0**-60, -(2.0**-60)):
        tie = np.zeros(3 * block)
        tie[0], tie[block], tie[2 * block] = 2.0**53, 1.0, tiny
        yield "2^53 + 1 + %r" % tiny, tie


@pytest.mark.parametrize("case, values", list(plain_sums()), ids=lambda v: v if isinstance(v, str) else "")
def test_block_sum_is_fsum(case, values):
    total = block_sum(values)
    assert total is not None, case
    assert total.hex() == math.fsum(values.tolist()).hex(), case
    assert outcome(mc_result, values) == outcome(ref_mc_result, values.tolist())


def deferred_sums():
    """Arrays whose sums the blocks leave to math.fsum."""
    n = wpcells._BLOCK + 3
    yield "all -0.0", np.full(n, -0.0)
    for special in ([math.inf], [-math.inf], [math.nan], [math.inf, -math.inf]):
        values = np.ones(n)
        values[7 : 7 + len(special)] = special
        yield "with %r" % special, values
    yield "1e308 each", np.full(n, 1e308)  # fsum: intermediate overflow
    alternating = np.full(n, 1e308)
    alternating[1::2] = -1e308
    yield "±1e308", alternating
    rng = np.random.default_rng(SEED)
    yield "1e-310 to 1e308", rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-310, 308, n)


@pytest.mark.parametrize("case, values", list(deferred_sums()), ids=lambda v: v if isinstance(v, str) else "")
def test_block_sum_defers_to_fsum(case, values):
    # an exact zero, a value that is not finite, or a sum that may leave
    # the float range is fsum's to give or raise
    assert block_sum(values) is None, case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(mc_result, values) == outcome(ref_mc_result, values.tolist())
        assert outcome(mc_result, values.tolist()) == outcome(ref_mc_result, values.tolist())


# The first four standard-normal deviations of default_rng(20260814) whose
# glibc square d ** 2 is not the one rounded product d * d: the exact square
# lies about half a float spacing from d * d, where the two may round apart.
POW_IS_NOT_RN = ("0x1.e07f0d176e24fp-2", "-0x1.c6c4f31692515p-5",
                 "-0x1.9d9a7e0a2093bp+0", "-0x1.f1e153508b76cp-1")


def padded(deviations, n):
    """Each deviation and its negative, then zeros to length n: the mean is
    exactly 0, so the deviations are the values themselves."""
    values = np.zeros(n)
    for k, d in enumerate(deviations):
        values[2 * k + 1], values[n - 2 * k - 1] = d, -d
    return values


def block_squares(values):
    return [v.hex() for v in np.concatenate(list(wpcells._squares(values, 0.0)))]


def python_squares(values):
    return [(d * d).hex() for d in values.tolist()]


def test_squares_are_python_products_near_ties():
    deviations = [float.fromhex(h) for h in POW_IS_NOT_RN]
    values = padded(deviations, 2 * wpcells._BLOCK + 5)
    assert block_squares(values) == python_squares(values)
    assert result_bits(mc_result(values, 1.0, SEED)) == result_bits(ref_mc_result(values.tolist(), 1.0, SEED))
    # and over seeded deviations of every size in [2^-400, 2^500]
    rng = np.random.default_rng(SEED)
    values = rng.standard_normal(3 * wpcells._BLOCK) * 2.0 ** rng.integers(-399, 499, 3 * wpcells._BLOCK)
    assert block_squares(values) == python_squares(values)


# Deviations near 2^-511, whose squares lie near 2^-1022, the bottom of the
# normal range, where glibc's d ** 2 is not d * d.
UNDERFLOWING_ERRORS = ("-0x1.a01fd923085f0p-511", "-0x1.a11d11dcfea89p-510",
                       "-0x1.e9b4936431744p-512", "0x1.206efdd07e66dp-511")


def test_squares_are_python_products_near_the_normal_floor():
    deviations = [float.fromhex(h) for h in UNDERFLOWING_ERRORS]
    values = padded(deviations, wpcells._BLOCK + 9)
    assert block_squares(values) == python_squares(values)
    assert outcome(mc_result, values) == outcome(ref_mc_result, values.tolist())


@pytest.mark.parametrize("start, toward", [
    # 2^-400 and 2^500, inward and outward: past them the error term of an
    # exact square d·d = RN(d·d) + error under- or overflows
    (2.0**-400, math.inf), (2.0**500, 0.0),
    (math.nextafter(2.0**-400, 0.0), 0.0), (math.nextafter(2.0**500, math.inf), math.inf),
    (5e-324, math.inf), (1.3e154, math.inf),  # subnormal; squares near 2^1023
])
def test_squares_at_the_edges_of_the_exact_product(start, toward):
    deviations = [start]
    for _ in range(30):
        deviations.append(math.nextafter(deviations[-1], toward))
    values = padded(deviations, wpcells._BLOCK + 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(mc_result, values) == outcome(ref_mc_result, values.tolist())
        assert block_squares(values) == python_squares(values)


def test_mc_result_routes_agree(monkeypatch):
    # the same values, all on the short route and all on the block route
    rng = np.random.default_rng(SEED)
    values = rng.choice([-1.0, 1.0], 1500) * rng.pareto(1.5, 1500)
    bits = []
    for short in (1, 10**9):
        monkeypatch.setattr(wpcells, "_SHORT", short)
        bits.append(result_bits(mc_result(values, 0.7, SEED)))
    assert bits[0] == bits[1] == result_bits(ref_mc_result(values.tolist(), 0.7, SEED))
