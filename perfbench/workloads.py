"""Seeded workloads: their inputs, the operations of one pass, and the checks
of those operations against independent references.

A workload is built once per run from the seed.  One pass runs every
operation in order through the library's public functions; the benchmark
times passes and checks the outputs of the first one.  Every call goes
through a module attribute (``torus.mc_moduli``, not a bound name) so that
the traced run's wrappers see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from multicurve import dtlattice, frequencies, thurston, torus, volumes, wpcells
from multicurve.dtlattice import CombWeights
from multicurve.exactpoly import PiRat
from multicurve.topology import SurfaceType, builtin_surface

# Exact checks that fail on the seed code.  They stay in the workloads so the
# defect keeps showing; a failure matching one of these is counted in
# ``failed`` but does not make the run incorrect.
KNOWN_DEFECTS = {
    "enumerate-count-tie": "enumerate_ball and count_ball disagree on boundary ties "
    "(float budgets accumulated in different orders)",
    "trace-nan": "trace_of_slope returns NaN for deep Fibonacci slopes",
}

# A statistical check that misses by more than this many standard errors is
# treated as a wrong result, not as sampling noise.
WRONG_SIGMA = 5.0


@dataclass
class Failure:
    case: str
    detail: str
    known: str | None = None  # key of KNOWN_DEFECTS
    statistical: bool = False  # a 3-sigma style miss of a random estimate
    sigma: float = 0.0

    def expected(self) -> bool:
        """True when the failure is a known defect or plausible sampling noise."""
        return self.known is not None or (self.statistical and self.sigma <= WRONG_SIGMA)

    def line(self) -> str:
        tag = ""
        if self.known:
            tag = " [known defect: %s]" % self.known
        elif self.statistical:
            tag = " [statistical, %.2f sigma]" % self.sigma
        return "failed %s: %s%s" % (self.case, self.detail, tag)


@dataclass(frozen=True)
class Raised:
    """The output of an operation that raised."""

    type: str
    message: str


@dataclass
class Op:
    name: str  # unique within the workload
    fn: object  # no-argument call into the library
    # reduces the output to what the checks and the pass-to-pass comparison
    # read, so the harness does not hold every spectrum; None keeps it whole
    keep: object = None


@dataclass
class Workload:
    name: str
    ops: list
    check: object  # outputs {op name: output} -> list of Failure
    items: int  # work items per pass: MC samples, queries or operations
    item_kind: str
    # the traced run replaces this to wrap the Monte Carlo functionals
    wrap_functional: object = None


def _pooled(pairs):
    """(mean, standard error) of equal-size Monte Carlo estimates given as
    (estimate, stderr) pairs: the error pools the calls' own variances.  A
    spread of a few dozen short-call estimates is a poor error estimate: on
    moduli-mc the `one` estimates take three or four values, and their
    spread once put a 3.2-sigma deviation at 4.6 sigma."""
    n = len(pairs)
    return (math.fsum(e for e, _ in pairs) / n, math.sqrt(math.fsum(s * s for _, s in pairs)) / n)


def _sigma_check(case, estimate, stderr, exact, failures):
    dev = abs(estimate - exact) / stderr if stderr > 0 else (0.0 if estimate == exact else math.inf)
    if not dev <= 3.0:
        failures.append(Failure(case, "estimate %r vs exact %r (stderr %r)" % (estimate, exact, stderr),
                                statistical=True, sigma=dev))


# ---------------------------------------------------------------------------
# moduli-mc


MC_FUNCTIONALS = (
    ("one", lambda X: 1.0),
    ("count_s_1_80", lambda X: torus.count_s(X, 1, 80.0)),
    ("b_hat_80", lambda X: torus.b_hat(X, 80.0)),
    ("b_hat_80_sq", lambda X: torus.b_hat(X, 80.0) ** 2),
    ("joint_60", lambda X: torus.count_s(X, 1, 60.0) * torus.count_s(X, 2, 60.0) / 60.0**4),
)

# Fricke tree walks per kept sample that each functional makes at the seed
# code: count_s walks once, b_hat once per ladder rung (3).
WALKS_PER_CALL = {"one": 0, "count_s_1_80": 1, "b_hat_80": 3, "b_hat_80_sq": 3, "joint_60": 2}


# The thread pool is GIL-bound: on 2 cores, passes at threads=2 were slower
# and spread 5x wider (IQR/median 0.42 against 0.08 at threads=1).
MC_THREADS = 1


def moduli_mc(seed: int, calls: int = 32, samples: int = 16, threads: int = MC_THREADS) -> Workload:
    """The functionals the moduli-chain check integrates, as `calls` seeded
    mc_moduli estimates of `samples` points each per functional.

    Many short calls rather than one long one: the host's speed changes
    within a long call, while the reference times taken just before and
    after a short one hold for all of it.  Per-call set-up (the Philox
    generator, the point list) is under 1% of a 16-sample call.
    """
    wl = Workload("moduli-mc", [], None, items=calls * samples * len(MC_FUNCTIONALS),
                  item_kind="MC sample")
    for k, (name, f) in enumerate(MC_FUNCTIONALS):
        for c in range(calls):
            mc_seed = ((seed * len(MC_FUNCTIONALS) + k) * calls + c) & (2**63 - 1)

            def op(f=f, mc_seed=mc_seed):
                g = wl.wrap_functional(f) if wl.wrap_functional else f
                r = torus.mc_moduli(g, samples, mc_seed, threads=threads)
                return (r.estimate, r.stderr, r.samples, r.seed)

            wl.ops.append(Op("mc %s %d" % (name, c), op))

    def check(outputs):
        failures = []
        for name, (est, err, _, _) in outputs.items():
            # a short call may keep every sample of `one`: stderr 0 is valid
            if not (math.isfinite(est) and est >= 0 and math.isfinite(err) and err >= 0):
                failures.append(Failure(name, "estimate %r stderr %r" % (est, err)))
        # the Weil-Petersson volume of M_{1,1} in this normalization, against
        # the pooled `one` estimates
        mean, err = _pooled([outputs["mc one %d" % c][:2] for c in range(calls)])
        _sigma_check("mc one", mean, err, math.pi**2 / 6, failures)
        return failures

    wl.check = check
    return wl


# ---------------------------------------------------------------------------
# point-queries

THIN_SIDE = 8  # thin points sit on a THIN_SIDE x THIN_SIDE grid


def _strata(rng, n):
    """Stratified uniforms: one draw in each of n equal bins, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _query_summary(out):
    simple, multi, systole, spectrum = out
    return simple, multi, systole, len(spectrum), spectrum[0][1] if spectrum else None


def point_queries(seed: int, box: int = 256, thin_side: int = THIN_SIDE,
                  radii=(20.0, 120.0)) -> Workload:
    """What `torus count` then `torus spectrum` do, one query per point.

    Inputs are stratified rather than i.i.d., so that the latency quantiles
    describe the input distribution and not the luck of one seed: box points
    use stratified (u, v, radius) draws, thin points a grid over (log ell,
    log radius) jittered within the middle tenth of each cell.  Thin cost
    grows like radius²/ell, so wider jitter moved the tail by 20% between
    seeds, and the middle fifth still by 8%.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = math.log(radii[0]), math.log(radii[1])
    points = []
    u, v, w = _strata(rng, box), _strata(rng, box), _strata(rng, box)
    for i in range(box):
        ell = torus.BERS_11 * math.sqrt(1.0 - u[i])  # density ell on (0, bers]
        points.append((ell, ell * v[i], math.exp(lo + (hi - lo) * w[i])))
    for i in range(thin_side):
        for j in range(thin_side):
            a, b, t = rng.random(3)
            ell = math.exp(math.log(1e-3) + math.log(100.0) * (i + 0.45 + 0.1 * a) / thin_side)
            points.append((ell, ell * t, math.exp(lo + (hi - lo) * (j + 0.45 + 0.1 * b) / thin_side)))
    order = rng.permutation(len(points))
    points = [points[i] for i in order]

    wl = Workload("point-queries", [], None, items=len(points), item_kind="query")
    for i, (ell, tau, L) in enumerate(points):
        X = torus.TorusPoint(ell, tau)

        def op(X=X, L=L):
            return (
                torus.count_s(X, 1, L),
                torus.count_b(X, L),
                torus.systole_slope(X),
                torus.enumerate_short_slopes(X, L / 4),
            )

        wl.ops.append(Op("query %d" % i, op, keep=_query_summary))

    def check(outputs):
        failures = []
        for i, (ell, tau, L) in enumerate(points):
            name = "query %d" % i
            simple, multi, (slope, syslen, mult), spectrum_len, shortest = outputs[name]
            X = torus.TorusPoint(ell, tau)
            bad = []
            ref = torus.count_s(X, 1, L / 4)
            if spectrum_len != ref:
                bad.append("spectrum has %d slopes, count_s(L/4) = %d" % (spectrum_len, ref))
            if shortest != syslen:
                bad.append("systole %r is not the spectrum minimum %r" % (syslen, shortest))
            direct = torus.slope_length(X, slope)
            if not abs(direct - syslen) <= 1e-9 * syslen:
                bad.append("systole %s length %r, slope_length %r" % (slope, syslen, direct))
            if not (multi >= simple >= spectrum_len and mult >= 1):
                bad.append("counts not ordered: %r" % ((multi, simple, spectrum_len, mult),))
            if bad:
                failures.append(Failure(name, "; ".join(bad)))
        return failures

    wl.check = check
    return wl


# ---------------------------------------------------------------------------
# closed-forms

# (surface, widths, lengths, ladder radii): README and verify weights
LADDERS = (
    ("S11", (1.0,), (1.0,), (2000.0, 4000.0, 8000.0, 16000.0)),
    ("S04", (1.0,), (1.0,), (2000.0, 4000.0, 8000.0, 16000.0)),
    ("S12", (0.75, 1.5), (1.25, 0.5), (10.0, 20.0, 40.0, 80.0)),
    ("S20", (0.75, 1.5, 2.5), (1.25, 0.5, 1.0), (8.0, 16.0, 32.0)),
)

# (surface, widths, lengths, radius, jittered, known defect or None).  The two
# fixed radii sit on boundary ties where the seed code's enumerate and count
# disagree (S20: 1082 enumerated, 1080 counted; S12: 127 against 121).
BALLS = (
    ("S11", (1.0,), (1.0,), 60.0, True, None),
    ("S04", (1.0,), (1.0,), 60.0, True, None),
    ("S12", (0.75, 1.5), (1.25, 0.5), 10.0, True, None),
    ("S20", (0.75, 1.5, 2.5), (1.25, 0.5, 1.0), 7.0, True, None),
    ("S20", (0.3, 0.7, 2.0), (1.5, 1.3, 2.0), 7.0, False, "enumerate-count-tie"),
    ("S12", (0.1, 0.1), (0.1, 0.1), 0.6, False, "enumerate-count-tie"),
)

WITNESS_FLOORS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

# mc_integrate runs as this many calls that share its samples: one
# 100000-sample call takes 0.6 s, too long for the reference times taken
# around it to hold for all of it, and alone it made 60% of a pass, so its
# timing error spread the pass time 9% between runs
MC_INTEGRATE_PARTS = 25


def _wts_label(name, ws, ls, L):
    return "%s w=%s l=%s L=%.6g" % (name, ",".join("%g" % v for v in ws),
                                    ",".join("%g" % v for v in ls), L)


def closed_forms(seed: int, cap: int = 600, s04_weights: int = 8, cell_samples: int = 100000,
                 ladders=LADDERS, balls=BALLS) -> Workload:
    """The non-torus paths, each against a closed form or a second path."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ops = []
    ladder_refs = []  # (closed-form measure, [(op name, radius)])
    ball_refs = []  # (ball label, known defect or None)

    for name, ws, ls, radii in ladders:
        surf, dec = builtin_surface(name)
        wts = CombWeights(ws, ls)
        rungs = []
        for L in radii:
            op_name = "ball " + _wts_label(name, ws, ls, L)
            ops.append(Op(op_name, lambda dec=dec, wts=wts, L=L: thurston.lattice_ball_estimate(dec, wts, L)))
            rungs.append((op_name, L))
        ladder_refs.append((thurston.comb_ball_measure(surf, wts), rungs))

    for name, ws, ls, L, jittered, known in balls:
        if jittered:
            # enumeration cost grows like L^(2N): a small jitter keeps the
            # latency ranks of the operations the same from seed to seed
            L *= 1.0 + 0.05 * float(rng.random())
        _, dec = builtin_surface(name)
        wts = CombWeights(ws, ls)
        label = _wts_label(name, ws, ls, L)
        ops.append(Op("enumerate " + label, lambda dec=dec, wts=wts, L=L: list(dtlattice.enumerate_ball(dec, wts, L))))
        ops.append(Op("count " + label, lambda dec=dec, wts=wts, L=L: dtlattice.count_ball(dec, wts, L)))
        ball_refs.append((label, known))

    table = volumes.volume_table_load(None)
    s11_cut = frequencies.cut_nonseparating_s11()
    s04_cut = frequencies.cut_separating_s04()
    ops.append(Op("sum-b S11 cap=%d" % cap, lambda: frequencies.b_from_frequencies(
        s11_cut.surface, [(s11_cut, 1)], table, cap)))
    qs = sorted(int(q) for q in rng.choice(np.arange(1, 65), size=s04_weights, replace=False))
    for q in qs:
        ops.append(Op("frequency S04 q=%d" % q, lambda q=q: frequencies.frequency(s04_cut, [q], 1, table)))

    s11 = SurfaceType(1, 1)
    mc_seed = int(rng.integers(2**62))
    floored = wpcells.CellSpec(s11, 1, thin_floor=1e-3)
    part_seeds = [int(v) for v in rng.integers(2**62, size=MC_INTEGRATE_PARTS)]
    parts = ["mc_integrate F^2 floor=1e-3 part %d" % k for k in range(MC_INTEGRATE_PARTS)]
    for name, part_seed in zip(parts, part_seeds):
        ops.append(Op(name, lambda part_seed=part_seed: wpcells.mc_integrate(
            lambda fn: wpcells.f_on_cell(floored, fn) ** 2, floored,
            cell_samples // MC_INTEGRATE_PARTS, part_seed)))
    cells = {k: wpcells.CellSpec(s11, k) for k in (0, 1)}
    for k, spec in cells.items():
        ops.append(Op("f_power_mc F^2 k=%d" % k, lambda spec=spec: wpcells.f_power_mc(spec, 2.0, cell_samples, mc_seed)))
    for floor in WITNESS_FLOORS:
        spec = wpcells.CellSpec(s11, 1, thin_floor=floor)
        ops.append(Op("f_power_mc F^2.5 floor=%g" % floor,
                      lambda spec=spec: wpcells.f_power_mc(spec, 2.5, cell_samples, mc_seed)))

    wl = Workload("closed-forms", ops, None, items=len(ops), item_kind="operation")

    def check(outputs):
        failures = []
        # the lattice estimate converges to the closed form at the O(1/L)
        # rate of lattice-point counts in dilated polytopes
        for closed, rungs in ladder_refs:
            prev = None
            for op_name, L in rungs:
                est = outputs[op_name]
                err = abs(est / closed - 1.0)
                if not (math.isfinite(est) and est > 0):
                    failures.append(Failure(op_name, "estimate %r" % est))
                elif prev is not None and not (err < prev[1] and L * err <= 1.01 * prev[0] * prev[1]):
                    failures.append(Failure(op_name, "rel error %.6g at L=%g after %.6g at L=%g vs "
                                                     "closed form %r" % (err, L, prev[1], prev[0], closed)))
                prev = (L, err)
        for label, known in ball_refs:
            got, want = outputs["enumerate " + label], outputs["count " + label]
            if len(got) != want:
                failures.append(Failure("enumerate " + label, "%d points enumerated, %d counted"
                                        % (len(got), want), known=known))

        partial, tail = outputs["sum-b S11 cap=%d" % cap]
        exact = PiRat(sum(Fraction(1, 2 * q * q) for q in range(1, cap + 1)))
        closed = frequencies.b_closed_form_s11(1)
        gap = float(closed) - float(partial)
        if partial != exact or not (0 <= gap <= tail <= 1.0 / (2 * cap) + 1e-15):
            failures.append(Failure("sum-b S11 cap=%d" % cap, "partial %s, gap %r, tail %r"
                                    % (partial, gap, tail)))
        for q in qs:
            name = "frequency S04 q=%d" % q
            if outputs[name] != PiRat(Fraction(1, 2 * q * q)):
                failures.append(Failure(name, "got %s, want 1/%d" % (outputs[name], 2 * q * q)))

        mean, err = _pooled([(outputs[name].estimate, outputs[name].stderr) for name in parts])
        _sigma_check("mc_integrate F^2 floor=1e-3", mean, err, wpcells.f2_cell_integral(floored), failures)
        for k, spec in cells.items():
            r = outputs["f_power_mc F^2 k=%d" % k]
            _sigma_check("f_power_mc F^2 k=%d" % k, r.estimate, r.stderr,
                         wpcells.f2_cell_integral(spec), failures)
        ladder = [outputs["f_power_mc F^2.5 floor=%g" % f].estimate for f in WITNESS_FLOORS]
        if not (all(b > a for a, b in zip(ladder, ladder[1:])) and ladder[-1] >= 5.0 * ladder[0]):
            # the witness integrals diverge as the floor drops: strictly
            # increasing and growing at least 5x, as the verify check asks
            failures.append(Failure("f_power_mc F^2.5 floor=%g" % WITNESS_FLOORS[-1],
                                    "ladder %r" % (ladder,), statistical=True))
        return failures

    wl.check = check
    return wl


BUILDERS = {
    "moduli-mc": moduli_mc,
    "point-queries": point_queries,
    "closed-forms": closed_forms,
}
