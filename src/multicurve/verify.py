"""Verification suite: one deterministic pass/fail line per acceptance check.

Every check is seeded from the run config, so a rerun with the same config
produces a byte-identical report (wall-clock budgets are enforced but never
printed in the passing text).  The report embeds the resolved config.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds, frequencies, thurston, torus, wpcells
from ._kernels import BACKEND
from .config import RunConfig
from .dtlattice import CombWeights, count_ball, parity_masks
from .exactpoly import PiPoly, PiRat
from .hypfun import FNPoint, collar_width
from .topology import SurfaceType, builtin_surface
from .volumes import volume_table_load

_THIN_STREAM = 0x7819  # Philox stream for the deliberate thin samples


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    measured: str
    tolerance: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return "[%s] %s: %s (tol %s)" % (tag, self.check_id, self.measured, self.tolerance)


def _fmt(x: float) -> str:
    return "%.6g" % (x,)


# --- 1 -----------------------------------------------------------------


def check_closed_form(cfg: RunConfig) -> CheckResult:
    """Lattice count of the combinatorial ball against the closed-form
    measure, on both one-cuff builtins and three weight choices."""
    t0 = time.monotonic()
    worst = 0.0
    L = cfg.budgets.lattice_L
    for name in ("S11", "S04"):
        surf, dec = builtin_surface(name)
        N = surf.cuff_count
        for ell in (None, 0.5, 1.76275):
            if ell is None:
                ws, ls = (1.0,) * N, (1.0,) * N
            else:
                ws, ls = (collar_width(ell),) * N, (ell,) * N
            wts = CombWeights(ws, ls)
            closed = thurston.comb_ball_measure(surf, wts)
            est = count_ball(dec, wts, L) / L ** (2 * N)
            worst = max(worst, abs(est / closed - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.02 and elapsed <= 60.0
    note = "within time budget" if elapsed <= 60.0 else "over time budget (%.1fs)" % elapsed
    return CheckResult(
        "thurston-closed-form",
        ok,
        "max rel dev %s over S11,S04 x 3 weight choices at L=%g; %s" % (_fmt(worst), L, note),
        "2e-02, 60 s",
    )


# --- 2 -----------------------------------------------------------------


def check_cell_integrals(cfg: RunConfig) -> CheckResult:
    """Exact thin/thick cell factors and Monte Carlo agreement."""
    s11 = SurfaceType(1, 1)
    eps = cfg.epsilon
    bers = cfg.bers_bound("S11")
    n = cfg.budgets.cell_samples
    seed = cfg.seed

    thin_spec = wpcells.CellSpec(s11, 1, eps=eps, bers_bound=bers)
    thick_spec = wpcells.CellSpec(s11, 0, eps=eps, bers_bound=bers)
    thin_err = abs(wpcells.f2_cell_integral(thin_spec) - (-1.0 / math.log(eps)))
    thick_err = abs(wpcells.f2_cell_integral(thick_spec) - (bers * bers - eps * eps) / 2.0)
    exact_ok = thin_err <= 1e-9 and thick_err <= 1e-9

    devs = []
    for spec in (thick_spec, thin_spec):
        r = wpcells.f_power_mc(spec, 2.0, n, seed)
        exact = wpcells.f2_cell_integral(spec)
        devs.append(abs(r.estimate - exact) / r.stderr if r.stderr else abs(r.estimate - exact))
    floored = wpcells.CellSpec(s11, 1, eps=eps, bers_bound=bers, thin_floor=1e-3)
    r = wpcells.mc_integrate(lambda fn: wpcells.f_on_cell(floored, fn) ** 2, floored, n, seed)
    devs.append(abs(r.estimate - wpcells.f2_cell_integral(floored)) / r.stderr)
    mc_ok = all(d <= 3.0 for d in devs)

    return CheckResult(
        "cell-exact-integrals",
        exact_ok and mc_ok,
        "thin |err| %s, thick |err| %s; MC devs %s sigma" % (
            _fmt(thin_err), _fmt(thick_err), ", ".join(_fmt(d) for d in devs)),
        "1e-09 exact, 3 sigma MC",
    )


# --- 3 -----------------------------------------------------------------


def check_square_integrability(cfg: RunConfig) -> CheckResult:
    """F² integrable on every cell; F^2.5 diverges as the floor drops."""
    s11 = SurfaceType(1, 1)
    eps, bers = cfg.epsilon, cfg.bers_bound("S11")
    n, seed = cfg.budgets.cell_samples, cfg.seed

    worst = 0.0
    for k in (0, 1):
        spec = wpcells.CellSpec(s11, k, eps=eps, bers_bound=bers)
        r = wpcells.f_power_mc(spec, 2.0, n, seed)
        if not math.isfinite(r.estimate):
            return CheckResult("square-integrability-witness", False,
                               "F^2 estimate not finite on k=%d cell" % k, "finite, 3 sigma")
        exact = wpcells.f2_cell_integral(spec)
        dev = abs(r.estimate - exact) / r.stderr if r.stderr else abs(r.estimate - exact)
        worst = max(worst, dev)

    ladder = []
    for floor in cfg.budgets.witness_floors:
        spec = wpcells.CellSpec(s11, 1, eps=eps, bers_bound=bers, thin_floor=floor)
        ladder.append(wpcells.f_power_mc(spec, 2.5, n, seed).estimate)
    monotone = all(b > a for a, b in zip(ladder, ladder[1:]))
    growth = ladder[-1] / ladder[0]
    ok = worst <= 3.0 and monotone and growth >= 5.0

    return CheckResult(
        "square-integrability-witness",
        ok,
        "F^2 worst dev %s sigma; F^2.5 ladder %s (monotone=%s, growth %sx)" % (
            _fmt(worst), ", ".join(_fmt(v) for v in ladder), monotone, _fmt(growth)),
        "3 sigma; strictly increasing, growth >= 5",
    )


# --- 4 -----------------------------------------------------------------


def _thin_points(count: int, seed: int, lo: float = 1e-3, hi: float = 1e-1):
    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), _THIN_STREAM]))
    ells = np.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * rng.random(count))
    taus = ells * rng.random(count)
    return [torus.TorusPoint(l, t) for l, t in zip(ells.tolist(), taus.tolist())]


def check_sandwich(cfg: RunConfig) -> CheckResult:
    """Calibrated two-sided bound C1·F <= Bhat <= C2·F, zero violations."""
    eps = cfg.epsilon
    ells, taus = torus.sample_bers_box(cfg.budgets.sandwich_box, cfg.seed)
    pts = [torus.TorusPoint(l, t) for l, t in zip(ells.tolist(), taus.tolist())]
    pts += _thin_points(cfg.budgets.sandwich_thin, cfg.seed)
    lo_ratio, hi_ratio, violations = math.inf, 0.0, 0
    for X in pts:
        F = bounds.f_value(FNPoint((X.ell,), (X.tau,)), eps)
        B = torus.b_hat(X, cfg.budgets.bhat_lmax)
        r = B / F
        lo_ratio, hi_ratio = min(lo_ratio, r), max(hi_ratio, r)
        if not (cfg.c1 * F <= B <= cfg.c2 * F):
            violations += 1
    ok = violations == 0
    return CheckResult(
        "sandwich-bounds",
        ok,
        "%d violations on %d samples; Bhat/F in [%s, %s] vs [C1, C2] = [%g, %g]" % (
            violations, len(pts), _fmt(lo_ratio), _fmt(hi_ratio), cfg.c1, cfg.c2),
        "zero violations",
    )


# --- 5 -----------------------------------------------------------------


def check_counting_asymptotics(cfg: RunConfig) -> CheckResult:
    """count_s(X,1,L)/L² ~ c(γ)/b · B(X) with hatted inputs."""
    t0 = time.monotonic()
    L = cfg.budgets.ratio_L
    lmax = cfg.budgets.bhat_lmax
    n = cfg.budgets.moduli_samples
    bhat = torus.mc_moduli(lambda X: torus.b_hat(X, lmax), n, cfg.seed + 1,
                           symmetry_factor=cfg.symmetry_factor, threads=cfg.threads).estimate
    integral = torus.mc_moduli(lambda X: torus.count_s(X, 1, L), n, cfg.seed + 2,
                               symmetry_factor=cfg.symmetry_factor, threads=cfg.threads).estimate
    khat = integral / (L * L / 2.0)
    chat = khat / 2.0
    ells, taus = torus.sample_bers_box(cfg.budgets.ratio_points, cfg.seed + 3)
    worst = 0.0
    for l, t in zip(ells.tolist(), taus.tolist()):
        X = torus.TorusPoint(l, t)
        ratio = (torus.count_s(X, 1, L) / L**2) * bhat / (chat * torus.b_hat(X, lmax))
        worst = max(worst, abs(ratio - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.1 and elapsed <= 600.0
    note = "within time budget" if elapsed <= 600.0 else "over time budget (%.1fs)" % elapsed
    return CheckResult(
        "counting-asymptotics",
        ok,
        "worst |ratio-1| %s over %d points at L=%g; %s" % (
            _fmt(worst), cfg.budgets.ratio_points, L, note),
        "0.1, 600 s",
    )


# --- 6 -----------------------------------------------------------------


def check_uniform_bound(cfg: RunConfig) -> CheckResult:
    """count_s(X,k,L)/L² below the explicit bound and below C(X)/k²."""
    consts = cfg.constants("S11")
    surf = SurfaceType(1, 1)
    lengths = cfg.budgets.bound_lengths
    kmax = cfg.budgets.bound_kmax
    ells, taus = torus.sample_bers_box(cfg.budgets.bound_points, cfg.seed + 4)
    explicit_viol = scaling_viol = 0
    worst_frac = 0.0
    for l, t in zip(ells.tolist(), taus.tolist()):
        X = torus.TorusPoint(l, t)
        fn = FNPoint((X.ell,), (X.tau,))
        # sup-fit of the k=1 normalized count over every radius used below
        cX = max(
            torus.count_s(X, 1, L / k) / (L / k) ** 2
            for L in lengths for k in range(1, kmax + 1)
        )
        for L in lengths:
            upper = bounds.count_upper(surf, fn, L, consts)
            for k in range(1, kmax + 1):
                val = torus.count_s(X, k, L) / L**2
                if val > upper:
                    explicit_viol += 1
                if val > cX / k**2 + 1e-12:
                    scaling_viol += 1
                worst_frac = max(worst_frac, val / upper)
    ok = explicit_viol == 0 and scaling_viol == 0
    return CheckResult(
        "uniform-count-bound",
        ok,
        "%d explicit and %d scaling violations on %d points x %d (k,L) pairs; "
        "max count/bound %s" % (
            explicit_viol, scaling_viol, cfg.budgets.bound_points,
            kmax * len(lengths), _fmt(worst_frac)),
        "zero violations",
    )


# --- 7 -----------------------------------------------------------------


def check_frequency_exactness(cfg: RunConfig) -> CheckResult:
    """Symbolic counting polynomial, partial-sum tails, joint sum identity."""
    table = volume_table_load(cfg.volume_table)
    cut = frequencies.cut_nonseparating_s11()
    kappa = cfg.kappa_of("S11")

    sym_ok = all(
        frequencies.count_polynomial(cut, [q], kappa, table)
        == PiPoly.monomial((2,), Fraction(kappa, 2 * q * q))
        for q in range(1, 6)
    )

    closed = frequencies.b_closed_form_s11(kappa)
    tails_ok = True
    gaps = []
    for cap in (10, cfg.budgets.freq_cap):
        partial, tail = frequencies.b_from_frequencies(
            cut.surface, [(cut, kappa)], table, cap)
        gap = float(closed) - float(partial)
        gaps.append(gap)
        budget = float(kappa) / (2 * cap)
        tails_ok = tails_ok and 0 <= gap <= tail <= budget + 1e-15

    a_sym = PiRat.pi2(0, Fraction(9, 20))
    joint_ok = frequencies.joint_frequency(closed, closed, a_sym, closed) == a_sym

    ok = sym_ok and tails_ok and joint_ok
    return CheckResult(
        "frequency-exactness",
        ok,
        "P(L,q·γ) symbolic=%s; partial-sum gaps %s within tails=%s; "
        "joint sum identity exact=%s" % (
            sym_ok, ", ".join(_fmt(g) for g in gaps), tails_ok, joint_ok),
        "exact equality; tail <= κ/(2·cap)",
    )


# --- 8 -----------------------------------------------------------------


def check_moduli_chain(cfg: RunConfig) -> CheckResult:
    """Volume, b, a and the joint product, all from the torus backend."""
    table = volume_table_load(cfg.volume_table)
    cut = frequencies.cut_nonseparating_s11()
    kappa = cfg.kappa_of("S11")
    n = cfg.budgets.moduli_samples
    sf, th = cfg.symmetry_factor, cfg.threads
    parts = []

    # (i) volume of moduli space
    target = float(table.volume(1, 1, (0,)))
    r = torus.mc_moduli(lambda X: 1.0, n, cfg.seed + 5, symmetry_factor=sf, threads=th)
    vol_dev = abs(r.estimate - target) / r.stderr
    vol_ok = vol_dev <= 3.0
    parts.append("vol dev %s sigma" % _fmt(vol_dev))

    # (ii) kappa stability and the b integral
    L = cfg.budgets.ratio_L
    khats = []
    for LL in (L, 2 * L):
        est = torus.mc_moduli(lambda X: torus.count_s(X, 1, LL), n, cfg.seed + 6,
                              symmetry_factor=sf, threads=th).estimate
        khats.append(est / (LL * LL / 2.0))
    k_stab = abs(khats[1] - khats[0]) / khats[0]
    snapped = frequencies.calibrate_kappa(
        cut, [1], table,
        lambda LL: torus.mc_moduli(lambda X: torus.count_s(X, 1, LL), n, cfg.seed + 6,
                                   symmetry_factor=sf, threads=th), L)
    b_target = float(frequencies.b_closed_form_s11(kappa))
    bhat = torus.mc_moduli(lambda X: torus.b_hat(X, cfg.budgets.bhat_lmax), n,
                           cfg.seed + 7, symmetry_factor=sf, threads=th).estimate
    b_dev = abs(bhat / b_target - 1.0)
    b_ok = k_stab <= 0.05 and snapped == kappa and b_dev <= 0.10
    parts.append("khat stab %s, b rel dev %s" % (_fmt(k_stab), _fmt(b_dev)))

    # (iii) the second moment, stable under sample doubling
    m = cfg.budgets.moment_samples
    lmax = cfg.budgets.bhat_lmax
    a1 = torus.mc_moduli(lambda X: torus.b_hat(X, lmax) ** 2, m, cfg.seed + 8,
                         symmetry_factor=sf, threads=th).estimate
    a2 = torus.mc_moduli(lambda X: torus.b_hat(X, lmax) ** 2, 2 * m, cfg.seed + 8,
                         symmetry_factor=sf, threads=th).estimate
    ahat = (a1 + a2) / 2.0
    a_cov = abs(a2 - a1) / (math.sqrt(2.0) * ahat)
    a_ok = a_cov <= 0.10
    parts.append("ahat %s CoV %s" % (_fmt(ahat), _fmt(a_cov)))

    # (iv) joint product against the moment prediction
    Lj = cfg.budgets.joint_L
    c1 = float(frequencies.frequency(cut, [1], khats[0], table))
    c2 = float(frequencies.frequency(cut, [2], khats[0], table))
    pred = (ahat / bhat**2) * c1 * c2
    joint = torus.mc_moduli(
        lambda X: torus.count_s(X, 1, Lj) * torus.count_s(X, 2, Lj) / Lj**4,
        m, cfg.seed + 9, symmetry_factor=sf, threads=th).estimate
    j_dev = abs(joint / pred - 1.0)
    j_ok = j_dev <= 0.15
    parts.append("joint rel dev %s" % _fmt(j_dev))

    return CheckResult(
        "moduli-chain",
        vol_ok and b_ok and a_ok and j_ok,
        "; ".join(parts),
        "3 sigma; 5%/10%; CoV 10%; 15%",
    )


# --- 9 -----------------------------------------------------------------


def check_determinism(cfg: RunConfig) -> CheckResult:
    """Thread counts and reruns never change a seeded result bit."""
    n = min(cfg.budgets.moduli_samples, 2000)
    f = lambda X: torus.b_hat(X, 40.0)
    r1 = torus.mc_moduli(f, n, cfg.seed, symmetry_factor=cfg.symmetry_factor, threads=1)
    r4 = torus.mc_moduli(f, n, cfg.seed, symmetry_factor=cfg.symmetry_factor, threads=4)
    threads_ok = (r1.estimate, r1.stderr) == (r4.estimate, r4.stderr)

    spec = wpcells.CellSpec(SurfaceType(1, 1), 1, eps=cfg.epsilon,
                            bers_bound=cfg.bers_bound("S11"))
    w1 = wpcells.f_power_mc(spec, 2.0, 5000, cfg.seed)
    w2 = wpcells.f_power_mc(spec, 2.0, 5000, cfg.seed)
    rerun_ok = (w1.estimate, w1.stderr) == (w2.estimate, w2.stderr)

    backends_ok = True
    backend_note = "backend %s" % BACKEND
    try:
        from ._kernels import _ckernels as ck
        from ._kernels import _pykernels as pk
    except ImportError:
        backend_note += " (single backend)"
    else:
        _, dec = builtin_surface("S12")
        masks = parity_masks(dec)
        for L in (5.0, 9.0):
            if ck.count_ball((0.7, 0.7), (1.3, 1.3), masks, L) != pk.count_ball(
                    (0.7, 0.7), (1.3, 1.3), masks, L):
                backends_ok = False
        tr = torus.fn_to_triple(torus.TorusPoint(1.3, 0.475))
        if ck.slopes_upto(tr.x, tr.y, tr.z, 12.0) != pk.slopes_upto(tr.x, tr.y, tr.z, 12.0):
            backends_ok = False
        backend_note += ", c == pure: %s" % backends_ok

    ok = threads_ok and rerun_ok and backends_ok
    return CheckResult(
        "determinism",
        ok,
        "threads 1 vs 4 identical: %s; rerun identical: %s; %s" % (
            threads_ok, rerun_ok, backend_note),
        "bit-identical",
    )


ALL_CHECKS = (
    check_closed_form,
    check_cell_integrals,
    check_square_integrability,
    check_sandwich,
    check_counting_asymptotics,
    check_uniform_bound,
    check_frequency_exactness,
    check_moduli_chain,
    check_determinism,
)

CHECK_IDS = (
    "thurston-closed-form",
    "cell-exact-integrals",
    "square-integrability-witness",
    "sandwich-bounds",
    "counting-asymptotics",
    "uniform-count-bound",
    "frequency-exactness",
    "moduli-chain",
    "determinism",
)


def run_suite(cfg: RunConfig, only=None) -> list:
    """Run all (or the named) checks; returns CheckResult list in order."""
    wanted = set(only) if only else set(CHECK_IDS)
    unknown = wanted - set(CHECK_IDS)
    if unknown:
        raise ValueError("unknown checks: %s" % ", ".join(sorted(unknown)))
    out = []
    for cid, fn in zip(CHECK_IDS, ALL_CHECKS):
        if cid in wanted:
            out.append(fn(cfg))
    return out


def render_report(cfg: RunConfig, results: list) -> str:
    lines = ["multicurve verification report", "=" * 30, ""]
    for r in results:
        lines.append(r.line())
    passed = sum(1 for r in results if r.passed)
    lines.append("")
    lines.append("%d of %d checks passed" % (passed, len(results)))
    lines.append("")
    lines.append("resolved config:")
    lines.append(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    return "\n".join(lines) + "\n"


def run_verify(cfg: RunConfig, only=None) -> tuple[int, str]:
    """Execute the suite; exit status 0 when every check passes, 1 otherwise."""
    results = run_suite(cfg, only)
    report = render_report(cfg, results)
    status = 0 if all(r.passed for r in results) else 1
    return status, report
