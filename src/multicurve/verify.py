"""Verification suite: one deterministic pass/fail line per acceptance check.

Every check is seeded from the run config, so a rerun with the same config
produces a byte-identical report (wall-clock limits are enforced but never
printed in the passing text).  The report embeds the resolved config.

Sample counts and radii are fixed here, each beside the check whose
tolerance was tuned with it, and the thin threshold is hypfun.EPSILON, at
which the sandwich constants were calibrated; a run config varies only the
seed and the volume table.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bounds, frequencies, thurston, torus, wpcells
from ._kernels import BACKEND
from .config import RunConfig
from .dtlattice import CombWeights
from .exactpoly import PiPoly, PiRat
from .hypfun import BERS_BOUNDS, C1, C2, EPSILON, Constants, FNPoint, collar_width
from .topology import SurfaceType, builtin_surface
from .volumes import volume_table_load

_THIN_STREAM = 0x7819  # Philox stream for the deliberate thin samples

# sizes two checks share
CELL_SAMPLES = 100000  # MC draws per Weil-Petersson cell
MODULI_SAMPLES = 8000  # draws for mc_moduli of 1, Bhat, count_s
RATIO_L = 80.0  # counting radius of the kappa and count-ratio estimates


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    measured: str
    tolerance: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return "[%s] %s: %s (tol %s)" % (tag, self.check_id, self.measured, self.tolerance)


_CHECKS = []  # (check id, check), in report order


def _check(check_id: str):
    """Register a check under its id, in report order.  The decorated
    function returns (passed, measured, tolerance); the registered check
    returns the CheckResult."""

    def register(fn):
        @functools.wraps(fn)
        def check(cfg: RunConfig) -> CheckResult:
            return CheckResult(check_id, *fn(cfg))

        _CHECKS.append((check_id, check))
        return check

    return register


def _fmt(x: float) -> str:
    return "%.6g" % (x,)


# --- 1 -----------------------------------------------------------------


@_check("thurston-closed-form")
def check_closed_form(cfg: RunConfig):
    """Lattice count of the combinatorial ball against the closed-form
    measure, on both one-cuff builtins and three weight choices."""
    t0 = time.monotonic()
    worst = 0.0
    L = 2000.0  # lattice-ball radius
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
            est = thurston.lattice_ball_estimate(dec, wts, L)
            worst = max(worst, abs(est / closed - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.02 and elapsed <= 60.0
    note = "within time budget" if elapsed <= 60.0 else "over time budget (%.1fs)" % elapsed
    return (
        ok,
        "max rel dev %s over S11,S04 x 3 weight choices at L=%g; %s" % (_fmt(worst), L, note),
        "2e-02, 60 s",
    )


# --- 2 -----------------------------------------------------------------


@_check("cell-exact-integrals")
def check_cell_integrals(cfg: RunConfig):
    """Exact thin/thick cell factors and Monte Carlo agreement."""
    s11 = SurfaceType(1, 1)
    eps = EPSILON
    bers = torus.BERS_11
    n = CELL_SAMPLES
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

    return (
        exact_ok and mc_ok,
        "thin |err| %s, thick |err| %s; MC devs %s sigma" % (
            _fmt(thin_err), _fmt(thick_err), ", ".join(_fmt(d) for d in devs)),
        "1e-09 exact, 3 sigma MC",
    )


# --- 3 -----------------------------------------------------------------


@_check("square-integrability-witness")
def check_square_integrability(cfg: RunConfig):
    """F² integrable on every cell; F^2.5 diverges as the floor drops."""
    s11 = SurfaceType(1, 1)
    eps, bers = EPSILON, torus.BERS_11
    n, seed = CELL_SAMPLES, cfg.seed

    worst = 0.0
    for k in (0, 1):
        spec = wpcells.CellSpec(s11, k, eps=eps, bers_bound=bers)
        r = wpcells.f_power_mc(spec, 2.0, n, seed)
        if not math.isfinite(r.estimate):
            return False, "F^2 estimate not finite on k=%d cell" % k, "finite, 3 sigma"
        exact = wpcells.f2_cell_integral(spec)
        dev = abs(r.estimate - exact) / r.stderr if r.stderr else abs(r.estimate - exact)
        worst = max(worst, dev)

    ladder = []
    for floor in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        spec = wpcells.CellSpec(s11, 1, eps=eps, bers_bound=bers, thin_floor=floor)
        ladder.append(wpcells.f_power_mc(spec, 2.5, n, seed).estimate)
    monotone = all(b > a for a, b in zip(ladder, ladder[1:]))
    growth = ladder[-1] / ladder[0]
    ok = worst <= 3.0 and monotone and growth >= 5.0

    return (
        ok,
        "F^2 worst dev %s sigma; F^2.5 ladder %s (monotone=%s, growth %sx)" % (
            _fmt(worst), ", ".join(_fmt(v) for v in ladder), monotone, _fmt(growth)),
        "3 sigma; strictly increasing, growth >= 5",
    )


# --- 4 -----------------------------------------------------------------


def _thin_points(count: int, seed: int):
    """Points with ell log-uniform in [1e-3, EPSILON] and tau in [0, ell)."""
    import numpy as np

    lo, hi = 1e-3, EPSILON
    rng = wpcells._rng(seed, _THIN_STREAM)
    ells = np.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * rng.random(count))
    taus = ells * rng.random(count)
    return [torus.TorusPoint(l, t) for l, t in zip(ells.tolist(), taus.tolist())]


@_check("sandwich-bounds")
def check_sandwich(cfg: RunConfig):
    """Calibrated two-sided bound C1·F <= Bhat <= C2·F, zero violations."""
    ells, taus = torus.sample_bers_box(80, cfg.seed)  # box samples
    pts = [torus.TorusPoint(l, t) for l, t in zip(ells.tolist(), taus.tolist())]
    pts += _thin_points(20, cfg.seed)  # deliberate thin samples, ell in [1e-3, EPSILON]
    lo_ratio, hi_ratio, violations = math.inf, 0.0, 0
    for X in pts:
        F = bounds.f_value(FNPoint((X.ell,), (X.tau,)), EPSILON)
        B = torus.b_hat(X, torus.BHAT_LMAX)
        r = B / F
        lo_ratio, hi_ratio = min(lo_ratio, r), max(hi_ratio, r)
        if not (C1 * F <= B <= C2 * F):
            violations += 1
    ok = violations == 0
    return (
        ok,
        "%d violations on %d samples; Bhat/F in [%s, %s] vs [C1, C2] = [%g, %g]" % (
            violations, len(pts), _fmt(lo_ratio), _fmt(hi_ratio), C1, C2),
        "zero violations",
    )


# --- 5 -----------------------------------------------------------------


@_check("counting-asymptotics")
def check_counting_asymptotics(cfg: RunConfig):
    """count_s(X,1,L)/L² ~ c(γ)/b · B(X) with hatted inputs."""
    t0 = time.monotonic()
    L = RATIO_L
    lmax = torus.BHAT_LMAX
    n = MODULI_SAMPLES
    points = 10
    bhat = torus.mc_moduli(lambda X: torus.b_hat(X, lmax), n, cfg.seed + 1).estimate
    integral = torus.mc_moduli(lambda X: torus.count_s(X, 1, L), n, cfg.seed + 2).estimate
    khat = integral / (L * L / 2.0)
    chat = khat / 2.0
    ells, taus = torus.sample_bers_box(points, cfg.seed + 3)
    worst = 0.0
    for l, t in zip(ells.tolist(), taus.tolist()):
        X = torus.TorusPoint(l, t)
        ratio = (torus.count_s(X, 1, L) / L**2) * bhat / (chat * torus.b_hat(X, lmax))
        worst = max(worst, abs(ratio - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.1 and elapsed <= 600.0
    note = "within time budget" if elapsed <= 600.0 else "over time budget (%.1fs)" % elapsed
    return (
        ok,
        "worst |ratio-1| %s over %d points at L=%g; %s" % (
            _fmt(worst), points, L, note),
        "0.1, 600 s",
    )


# --- 6 -----------------------------------------------------------------


@_check("uniform-count-bound")
def check_uniform_bound(cfg: RunConfig):
    """count_s(X,k,L)/L² below the explicit bound and below C(X)/k²."""
    consts = Constants(bers_bound=BERS_BOUNDS["S11"])
    surf = SurfaceType(1, 1)
    lengths = (20.0, 40.0, 80.0)
    kmax = 10
    points = 50
    ells, taus = torus.sample_bers_box(points, cfg.seed + 4)
    explicit_viol = scaling_viol = 0
    worst_frac = 0.0
    for l, t in zip(ells.tolist(), taus.tolist()):
        X = torus.TorusPoint(l, t)
        fn = FNPoint((X.ell,), (X.tau,))
        # count_s(X, k, L) walks count_upto(L / k), which is count_s(X, 1, L / k)
        counts = {(L, k): torus.count_s(X, k, L) for L in lengths for k in range(1, kmax + 1)}
        # sup-fit of the k=1 normalized count over every radius used below
        cX = max(c / (L / k) ** 2 for (L, k), c in counts.items())
        for L in lengths:
            upper = bounds.count_upper(surf, fn, L, consts)
            for k in range(1, kmax + 1):
                val = counts[L, k] / L**2
                if val > upper:
                    explicit_viol += 1
                if val > cX / k**2 + 1e-12:
                    scaling_viol += 1
                worst_frac = max(worst_frac, val / upper)
    ok = explicit_viol == 0 and scaling_viol == 0
    return (
        ok,
        "%d explicit and %d scaling violations on %d points x %d (k,L) pairs; "
        "max count/bound %s" % (
            explicit_viol, scaling_viol, points,
            kmax * len(lengths), _fmt(worst_frac)),
        "zero violations",
    )


# --- 7 -----------------------------------------------------------------


@_check("frequency-exactness")
def check_frequency_exactness(cfg: RunConfig):
    """Symbolic counting polynomial, partial-sum tails, joint sum identity."""
    table = volume_table_load(cfg.volume_table)
    cut = frequencies.cut_nonseparating_s11()
    kappa = frequencies.KAPPA["S11"]

    sym_ok = all(
        frequencies.count_polynomial(cut, [q], kappa, table)
        == PiPoly.monomial((2,), Fraction(kappa, 2 * q * q))
        for q in range(1, 6)
    )

    closed = frequencies.b_closed_form_s11(kappa)
    tails_ok = True
    gaps = []
    for cap in (10, 100):
        partial, tail = frequencies.b_from_frequencies(
            cut.surface, [(cut, kappa)], table, cap)
        gap = float(closed) - float(partial)
        gaps.append(gap)
        budget = float(kappa) / (2 * cap)
        tails_ok = tails_ok and 0 <= gap <= tail <= budget + 1e-15

    a_sym = PiRat.pi2(0, Fraction(9, 20))
    joint_ok = frequencies.joint_frequency(closed, closed, a_sym, closed) == a_sym

    ok = sym_ok and tails_ok and joint_ok
    return (
        ok,
        "P(L,q·γ) symbolic=%s; partial-sum gaps %s within tails=%s; "
        "joint sum identity exact=%s" % (
            sym_ok, ", ".join(_fmt(g) for g in gaps), tails_ok, joint_ok),
        "exact equality; tail <= κ/(2·cap)",
    )


# --- 8 -----------------------------------------------------------------


@_check("moduli-chain")
def check_moduli_chain(cfg: RunConfig):
    """Volume, b, a and the joint product, all from the torus backend."""
    table = volume_table_load(cfg.volume_table)
    cut = frequencies.cut_nonseparating_s11()
    kappa = frequencies.KAPPA["S11"]
    n = MODULI_SAMPLES
    lmax = torus.BHAT_LMAX
    parts = []

    # (i) volume of moduli space
    target = float(table.volume(1, 1, (0,)))
    r = torus.mc_moduli(lambda X: 1.0, n, cfg.seed + 5)
    vol_dev = abs(r.estimate - target) / r.stderr
    vol_ok = vol_dev <= 3.0
    parts.append("vol dev %s sigma" % _fmt(vol_dev))

    # (ii) kappa stability and the b integral
    L = RATIO_L
    counts = {
        LL: torus.mc_moduli(lambda X: torus.count_s(X, 1, LL), n, cfg.seed + 6)
        for LL in (L, 2 * L)
    }
    khats = [counts[LL].estimate / (LL * LL / 2.0) for LL in (L, 2 * L)]
    k_stab = abs(khats[1] - khats[0]) / khats[0]
    # the oracle's run at L is the one made for khats[0]
    snapped = frequencies.calibrate_kappa(cut, [1], table, lambda LL: counts[LL], L)
    b_target = float(frequencies.b_closed_form_s11(kappa))
    bhat = torus.mc_moduli(lambda X: torus.b_hat(X, lmax), n, cfg.seed + 7).estimate
    b_dev = abs(bhat / b_target - 1.0)
    b_ok = k_stab <= 0.05 and snapped == kappa and b_dev <= 0.10
    parts.append("khat stab %s, b rel dev %s" % (_fmt(k_stab), _fmt(b_dev)))

    # (iii) the second moment, stable under sample doubling
    m = 20000  # draws for the heavy-tailed Bhat^2 moment
    a1 = torus.mc_moduli(lambda X: torus.b_hat(X, lmax) ** 2, m, cfg.seed + 8).estimate
    a2 = torus.mc_moduli(lambda X: torus.b_hat(X, lmax) ** 2, 2 * m, cfg.seed + 8).estimate
    ahat = (a1 + a2) / 2.0
    a_cov = abs(a2 - a1) / (math.sqrt(2.0) * ahat)
    a_ok = a_cov <= 0.10
    parts.append("ahat %s CoV %s" % (_fmt(ahat), _fmt(a_cov)))

    # (iv) joint product against the moment prediction
    Lj = 60.0  # joint-counting radius
    c1 = float(frequencies.frequency(cut, [1], khats[0], table))
    c2 = float(frequencies.frequency(cut, [2], khats[0], table))
    pred = (ahat / bhat**2) * c1 * c2
    joint = torus.mc_moduli(
        lambda X: torus.count_s(X, 1, Lj) * torus.count_s(X, 2, Lj) / Lj**4,
        m, cfg.seed + 9).estimate
    j_dev = abs(joint / pred - 1.0)
    j_ok = j_dev <= 0.15
    parts.append("joint rel dev %s" % _fmt(j_dev))

    return (
        vol_ok and b_ok and a_ok and j_ok,
        "; ".join(parts),
        "3 sigma; 5%/10%; CoV 10%; 15%",
    )


# --- 9 -----------------------------------------------------------------


@_check("determinism")
def check_determinism(cfg: RunConfig):
    """Reruns on the same seed never change a result bit."""
    n = 2000
    f = lambda X: torus.b_hat(X, 40.0)
    m1 = torus.mc_moduli(f, n, cfg.seed)
    m2 = torus.mc_moduli(f, n, cfg.seed)
    moduli_ok = (m1.estimate, m1.stderr) == (m2.estimate, m2.stderr)

    spec = wpcells.CellSpec(SurfaceType(1, 1), 1, bers_bound=torus.BERS_11)
    w1 = wpcells.f_power_mc(spec, 2.0, 5000, cfg.seed)
    w2 = wpcells.f_power_mc(spec, 2.0, 5000, cfg.seed)
    cells_ok = (w1.estimate, w1.stderr) == (w2.estimate, w2.stderr)

    return (
        moduli_ok and cells_ok,
        "moduli rerun identical: %s; cell rerun identical: %s; backend %s (single backend)"
        % (moduli_ok, cells_ok, BACKEND),
        "bit-identical",
    )


CHECK_IDS = tuple(cid for cid, _ in _CHECKS)
ALL_CHECKS = tuple(check for _, check in _CHECKS)


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
