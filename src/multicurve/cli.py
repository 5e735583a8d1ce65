"""Batch front door: seeded, reproducible runs of every layer with tabular
and plot-data output.

Subcommands
    dt enumerate      lattice points of a combinatorial length ball -> CSV
    measure ball      closed form vs lattice ladder, fitted convergence rate
    bounds eval       BoundReport for one surface point -> JSON
    cells integrate   Monte Carlo chart integrals over thin/thick cells
    freq compute      exact counting polynomial and frequency
    freq sum-b        partial frequency sums against the closed form
    freq joint        joint frequencies and the sum identity
    torus count       s(X,k,L) and b(X,L) on the once-punctured torus
    torus spectrum    simple length spectrum -> CSV
    torus mc          moduli-space Monte Carlo (one, B, B2, ss:k1,k2:L)
    verify            acceptance suite; report is byte-stable for a seed

Every command prints a JSON document that embeds the fully resolved
configuration, so a saved output is a complete record of the run.  Exit
codes: 0 success, 1 verification check failed, 2 invalid configuration or
arguments, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import dtlattice, frequencies, thurston, torus, verify, wpcells
from .config import ConfigError, RunConfig, load_config
from .dtlattice import CombWeights
from .hypfun import FNPoint, collar_width
from .topology import builtin_surface
from .volumes import volume_table_load


def emit_plotdata(series, path: str) -> None:
    """Write (x, y, yerr) rows as CSV with the fixed header `x,y,yerr`;
    an empty series produces a header-only file."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,yerr\n")
        for x, y, yerr in series:
            fh.write("%.17g,%.17g,%.17g\n" % (x, y, yerr))


def _emit(doc: dict, cfg: RunConfig, out: str | None) -> None:
    doc = dict(doc)
    doc["config"] = cfg.to_dict()
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _parse_floats(text: str, what: str) -> list:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError("%s must be comma-separated numbers, got %r" % (what, text))
    if not vals:
        raise ConfigError("%s is empty" % what)
    if not all(map(math.isfinite, vals)):
        raise ConfigError("%s must be finite numbers, got %r" % (what, text))
    return vals


def _parse_weights(text: str, cuffs: int) -> CombWeights:
    """Accept `w,l` (applied to every cuff) or `w1,..,wN,l1,..,lN`."""
    vals = _parse_floats(text, "--weights")
    if len(vals) == 2:
        vals = [vals[0]] * cuffs + [vals[1]] * cuffs
    if len(vals) != 2 * cuffs:
        raise ConfigError(
            "--weights needs 2 or %d values for %d cuffs, got %d"
            % (2 * cuffs, cuffs, len(vals))
        )
    return CombWeights(tuple(vals[:cuffs]), tuple(vals[cuffs:]))


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError("%s must be a rational like 9/20 or 0.45, got %r" % (what, text))


# ---------------------------------------------------------------------------
# dt


def cmd_dt_enumerate(cfg: RunConfig, args) -> int:
    surf, dec = builtin_surface(args.surface)
    wts = _parse_weights(args.weights, surf.cuff_count)
    if not 0 < args.length < math.inf:
        raise ConfigError("--length must be positive and finite")
    rows = []
    for p in dtlattice.enumerate_ball(dec, wts, args.length):
        rows.append(p.m + p.t + (dtlattice.comb_length(p, wts),))
    header = (
        ["m%d" % i for i in range(1, surf.cuff_count + 1)]
        + ["t%d" % i for i in range(1, surf.cuff_count + 1)]
        + ["length"]
    )
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_cell(v) for v in row) + "\n")
    doc = {
        "surface": args.surface,
        "weights": {"width": wts.width, "length": wts.length},
        "radius": args.length,
        "count": len(rows),
        "columns": header,
    }
    if args.out:
        doc["out"] = args.out
    else:
        doc["points"] = [list(row) for row in rows]
    _emit(doc, cfg, None)
    return 0


def _cell(v) -> str:
    if isinstance(v, int):
        return str(v)
    return "%.17g" % v


# ---------------------------------------------------------------------------
# measure


def cmd_measure_ball(cfg: RunConfig, args) -> int:
    surf, dec = builtin_surface(args.surface)
    wts = _parse_weights(args.weights, surf.cuff_count)
    radii = sorted(_parse_floats(args.lengths, "--lengths"))
    if radii[0] <= 0:
        raise ConfigError("ball radii must be positive")
    closed = thurston.comb_ball_measure(surf, wts)
    ladder = []
    for L in radii:
        est = thurston.lattice_ball_estimate(dec, wts, L)
        ladder.append((L, est, abs(est - closed) / closed))
    # least-squares slope of log(rel err) against log L: the convergence rate
    pts = [(math.log(L), math.log(err)) for L, est, err in ladder if err > 0]
    rate = None
    if len(pts) >= 2:
        n = len(pts)
        sx = math.fsum(x for x, _ in pts)
        sy = math.fsum(y for _, y in pts)
        sxx = math.fsum(x * x for x, _ in pts)
        sxy = math.fsum(x * y for x, y in pts)
        denom = n * sxx - sx * sx
        if denom > 0:
            rate = (n * sxy - sx * sy) / denom
    doc = {
        "surface": args.surface,
        "weights": {"width": wts.width, "length": wts.length},
        "closed_form": closed,
        "ladder": [
            {"L": L, "estimate": est, "rel_error": err} for L, est, err in ladder
        ],
        "fitted_rate": rate,
    }
    if args.out:
        emit_plotdata(((L, est, abs(est - closed)) for L, est, err in ladder), args.out)
        doc["out"] = args.out
    _emit(doc, cfg, None)
    return 0


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds_eval(cfg: RunConfig, args) -> int:
    surf, _dec = builtin_surface(args.surface)
    lengths = _parse_floats(args.lengths, "--lengths")
    if len(lengths) != surf.cuff_count:
        raise ConfigError(
            "--lengths needs %d values for %s" % (surf.cuff_count, args.surface)
        )
    twists = [0.0] * surf.cuff_count
    if args.twists is not None:
        twists = _parse_floats(args.twists, "--twists")
        if len(twists) != surf.cuff_count:
            raise ConfigError(
                "--twists needs %d values for %s" % (surf.cuff_count, args.surface)
            )
    consts = cfg.constants(args.surface)
    if args.epsilon is not None:
        if not (0 < args.epsilon < 1):
            raise ConfigError("--epsilon must lie in (0, 1)")
        consts = bounds_mod.Constants(
            epsilon=args.epsilon,
            bers_bound=consts.bers_bound,
            comparison_c=consts.comparison_c,
            c1=consts.c1,
            c2=consts.c2,
        )
    try:
        fn = FNPoint(tuple(lengths), tuple(twists))
        report = bounds_mod.bound_report(surf, fn, consts)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _emit({"surface": args.surface, "report": report.as_dict()}, cfg, args.out)
    return 0


# ---------------------------------------------------------------------------
# cells


def _parse_functional_cells(text: str):
    if text == "one":
        return ("one", None)
    if text == "F2":
        return ("power", 2.0)
    if text == "B-comb":
        return ("bcomb", None)
    if text.startswith("Fp:"):
        try:
            delta = float(text[3:])
        except ValueError:
            raise ConfigError("Fp:<delta> needs a numeric delta, got %r" % text)
        if delta <= -2.0:
            raise ConfigError("Fp:<delta> needs delta > -2")
        return ("power", 2.0 + delta)
    raise ConfigError(
        "unknown functional %r (choices: one, F2, Fp:<delta>, B-comb)" % text
    )


def cmd_cells_integrate(cfg: RunConfig, args) -> int:
    surf, _dec = builtin_surface(args.surface)
    eps = cfg.epsilon if args.epsilon is None else args.epsilon
    try:
        spec = wpcells.CellSpec(
            surface=surf,
            thin_count=args.k,
            eps=eps,
            bers_bound=cfg.bers_bound(args.surface),
            thin_floor=args.floor,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    kind, power = _parse_functional_cells(args.functional)
    if kind == "power":
        try:
            res = wpcells.f_power_mc(spec, power, args.samples, cfg.seed)
        except ValueError as exc:
            raise ConfigError(str(exc))
    else:
        if kind == "one":
            functional = lambda fn: 1.0
        else:
            functional = lambda fn: bounds_mod.b_comb(surf, fn)
        res = wpcells.mc_integrate(
            functional, spec, args.samples, cfg.seed, threads=cfg.threads
        )
    doc = {
        "surface": args.surface,
        "cell": {
            "thin_count": spec.thin_count,
            "eps": spec.eps,
            "bers_bound": spec.bers_bound,
            "thin_floor": spec.thin_floor,
        },
        "functional": args.functional,
        "result": {
            "estimate": res.estimate,
            "stderr": res.stderr,
            "samples": res.samples,
            "seed": res.seed,
        },
        "cell_volume": wpcells.cell_volume(spec),
    }
    if kind == "power" and power == 2.0 and spec.thin_floor == 0.0:
        doc["exact"] = wpcells.f2_cell_integral(spec)
    if args.dump:
        with open(args.dump, "w", encoding="ascii") as fh:
            names = ["l%d" % i for i in range(1, surf.cuff_count + 1)]
            names += ["t%d" % i for i in range(1, surf.cuff_count + 1)]
            fh.write(",".join(names) + "\n")
            for fn in wpcells.sample_cell(spec, args.samples, cfg.seed):
                fh.write(
                    ",".join("%.17g" % v for v in fn.lengths + fn.twists) + "\n"
                )
        doc["dump"] = args.dump
    _emit(doc, cfg, args.out)
    return 0


# ---------------------------------------------------------------------------
# freq


def _builtin_cut(cfg: RunConfig, surface: str):
    makers = frequencies.BUILTIN_CUTS.get(surface)
    if not makers:
        raise ConfigError(
            "no builtin cut data for %s (available: %s)"
            % (surface, ", ".join(sorted(frequencies.BUILTIN_CUTS)))
        )
    return makers[0](), cfg.kappa_of(surface)


def _load_table(cfg: RunConfig):
    try:
        return volume_table_load(cfg.volume_table)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc))


def cmd_freq_compute(cfg: RunConfig, args) -> int:
    cut, kappa = _builtin_cut(cfg, args.surface)
    table = _load_table(cfg)
    try:
        wts = [int(v) for v in args.weights.split(",")]
    except ValueError:
        raise ConfigError("--weights must be comma-separated integers")
    if len(wts) != cut.k or any(v < 1 for v in wts):
        raise ConfigError("--weights needs %d positive integers" % cut.k)
    poly = frequencies.count_polynomial(cut, wts, kappa, table)
    c = frequencies.frequency(cut, wts, kappa, table)
    report = frequencies.FrequencyReport(
        p_poly=poly, c_exact=c, c_float=float(c), kappa=Fraction(kappa)
    )
    _emit({"surface": args.surface, "weights": wts, "frequency": report.as_dict()},
          cfg, args.out)
    return 0


def cmd_freq_sum_b(cfg: RunConfig, args) -> int:
    cut, kappa = _builtin_cut(cfg, args.surface)
    if args.surface != "S11":
        raise ConfigError(
            "the closed-form target is only known for S11; got %s" % args.surface
        )
    table = _load_table(cfg)
    cap = args.cap if args.cap is not None else cfg.budgets.freq_cap
    if cap < 1:
        raise ConfigError("--cap must be at least 1")
    partial, tail = frequencies.b_from_frequencies(
        cut.surface, [(cut, kappa)], table, cap
    )
    closed = frequencies.b_closed_form_s11(kappa)
    doc = {
        "surface": args.surface,
        "cap": cap,
        "partial": str(partial),
        "partial_float": float(partial),
        "tail_bound": tail,
        "closed_form": str(closed),
        "closed_form_float": float(closed),
        "gap": float(closed) - float(partial),
    }
    _emit(doc, cfg, args.out)
    return 0


def cmd_freq_joint(cfg: RunConfig, args) -> int:
    cut, kappa = _builtin_cut(cfg, "S11")
    table = _load_table(cfg)
    if args.q1 < 1 or args.q2 < 1:
        raise ConfigError("--q1 and --q2 must be positive integers")
    a = frequencies.PiRat(_parse_rational(args.a, "--a"))
    b = frequencies.b_closed_form_s11(kappa)
    c1 = frequencies.frequency(cut, [args.q1], kappa, table)
    c2 = frequencies.frequency(cut, [args.q2], kappa, table)
    c12 = frequencies.joint_frequency(c1, c2, a, b)
    cap = args.cap if args.cap is not None else cfg.budgets.freq_cap
    if cap < 1:
        raise ConfigError("--cap must be at least 1")
    # partial double sum of the identity  sum c(q1 g, q2 g) = a
    singles = [
        frequencies.frequency(cut, [q], kappa, table) for q in range(1, cap + 1)
    ]
    total = frequencies.PiRat(0)
    for u in singles:
        for v in singles:
            total = total + frequencies.joint_frequency(u, v, a, b)
    doc = {
        "q1": args.q1,
        "q2": args.q2,
        "a": str(a),
        "b": str(b),
        "c1": str(c1),
        "c2": str(c2),
        "joint": str(c12),
        "joint_float": float(c12),
        "cap": cap,
        "identity_partial": str(total),
        "identity_partial_float": float(total),
        "identity_target_float": float(a),
    }
    _emit(doc, cfg, args.out)
    return 0


# ---------------------------------------------------------------------------
# torus


def _torus_point(args) -> torus.TorusPoint:
    try:
        return torus.TorusPoint(args.ell, args.tau)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_torus_count(cfg: RunConfig, args) -> int:
    X = _torus_point(args)
    if not 0 < args.length < math.inf:
        raise ConfigError("--length must be positive and finite")
    L = args.length
    simple = torus.count_s(X, 1, L)
    multi = torus.count_b(X, L)
    slope, syslen, mult = torus.systole_slope(X, cfg.bers_bound("S11"))
    doc = {
        "ell": X.ell,
        "tau": X.tau,
        "L": L,
        "count_simple": simple,
        "count_multi": multi,
        "normalized_simple": simple / L**2,
        "normalized_multi": multi / L**2,
        "systole": {"slope": str(slope), "length": syslen, "multiplicity": mult},
    }
    _emit(doc, cfg, args.out)
    return 0


def cmd_torus_spectrum(cfg: RunConfig, args) -> int:
    X = _torus_point(args)
    if not 0 < args.length < math.inf:
        raise ConfigError("--length must be positive and finite")
    spectrum = torus.enumerate_short_slopes(X, args.length)
    doc = {
        "ell": X.ell,
        "tau": X.tau,
        "L": args.length,
        "count": len(spectrum),
    }
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("p,q,length\n")
            for s, l in spectrum:
                fh.write("%d,%d,%.17g\n" % (s.p, s.q, l))
        doc["out"] = args.out
    else:
        doc["spectrum"] = [[s.p, s.q, l] for s, l in spectrum]
    _emit(doc, cfg, None)
    return 0


def _parse_functional_torus(text: str, cfg: RunConfig):
    if text == "one":
        return lambda X: 1.0
    lmax = cfg.budgets.bhat_lmax
    if text == "B":
        return lambda X: torus.b_hat(X, lmax)
    if text == "B2":
        return lambda X: torus.b_hat(X, lmax) ** 2
    if text.startswith("ss:"):
        parts = text[3:].split(":")
        if len(parts) != 2:
            raise ConfigError("ss functional is ss:<k1>,<k2>:<L>, got %r" % text)
        try:
            k1, k2 = (int(v) for v in parts[0].split(","))
            L = float(parts[1])
        except ValueError:
            raise ConfigError("ss functional is ss:<k1>,<k2>:<L>, got %r" % text)
        if k1 < 1 or k2 < 1 or not 0 < L < math.inf:
            raise ConfigError("ss functional needs positive weights and length")
        return lambda X: torus.count_s(X, k1, L) * torus.count_s(X, k2, L) / L**4
    raise ConfigError(
        "unknown functional %r (choices: one, B, B2, ss:<k1>,<k2>:<L>)" % text
    )


def cmd_torus_mc(cfg: RunConfig, args) -> int:
    functional = _parse_functional_torus(args.functional, cfg)
    samples = args.samples if args.samples is not None else cfg.budgets.moduli_samples
    if samples < 2:
        raise ConfigError("--samples must be at least 2")
    res = torus.mc_moduli(
        functional,
        samples,
        cfg.seed,
        symmetry_factor=cfg.symmetry_factor,
        bers=cfg.bers_bound("S11"),
        threads=cfg.threads,
    )
    doc = {
        "functional": args.functional,
        "result": {
            "estimate": res.estimate,
            "stderr": res.stderr,
            "samples": res.samples,
            "seed": res.seed,
        },
    }
    _emit(doc, cfg, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig, args) -> int:
    only = None
    if args.only:
        only = [v for v in args.only.split(",") if v]
    try:
        status, report = verify.run_verify(cfg, only)
    except ValueError as exc:
        raise ConfigError(str(exc))
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    return status


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON run configuration")
    common.add_argument("--seed", type=int, help="override the configured seed")
    common.add_argument("--threads", type=int, help="override the worker count")
    common.add_argument("--out", help="write the command's file artifact here")

    top = argparse.ArgumentParser(
        prog="multicurve",
        description="statistics of simple closed multicurves on hyperbolic surfaces",
    )
    sub = top.add_subparsers(dest="command", required=True)

    dt = sub.add_parser("dt", help="Dehn-Thurston lattice").add_subparsers(
        dest="action", required=True
    )
    p = dt.add_parser("enumerate", parents=[common], help="points of a length ball")
    p.add_argument("--surface", default="S11")
    p.add_argument("--weights", default="1,1", help="w,l or w1,..,wN,l1,..,lN")
    p.add_argument("--length", type=float, required=True)
    p.set_defaults(run=cmd_dt_enumerate)

    measure = sub.add_parser("measure", help="Thurston measure").add_subparsers(
        dest="action", required=True
    )
    p = measure.add_parser("ball", parents=[common], help="closed form vs lattice")
    p.add_argument("--surface", default="S11")
    p.add_argument("--weights", default="1,1")
    p.add_argument("--lengths", required=True, help="ladder of ball radii")
    p.set_defaults(run=cmd_measure_ball)

    bnd = sub.add_parser("bounds", help="unit-ball function bounds").add_subparsers(
        dest="action", required=True
    )
    p = bnd.add_parser("eval", parents=[common], help="BoundReport at one point")
    p.add_argument("--surface", default="S11")
    p.add_argument("--lengths", required=True, help="cuff lengths")
    p.add_argument("--twists", help="cuff twists (default all 0)")
    p.add_argument("--epsilon", type=float, help="thin threshold override")
    p.set_defaults(run=cmd_bounds_eval)

    cells = sub.add_parser("cells", help="chart integrals").add_subparsers(
        dest="action", required=True
    )
    p = cells.add_parser("integrate", parents=[common], help="Monte Carlo on a cell")
    p.add_argument("--surface", default="S11")
    p.add_argument("--k", type=int, default=0, help="thin cuff count")
    p.add_argument(
        "--functional",
        default="one",
        help="one | F2 | Fp:<delta> (integrates F^(2+delta)) | B-comb",
    )
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--floor", type=float, default=0.0, help="thin length floor")
    p.add_argument("--epsilon", type=float, help="thin threshold override")
    p.add_argument("--dump", help="write the cell sample stream as CSV")
    p.set_defaults(run=cmd_cells_integrate)

    freq = sub.add_parser("freq", help="counting frequencies").add_subparsers(
        dest="action", required=True
    )
    p = freq.add_parser("compute", parents=[common], help="P(L, a.g) and c(a.g)")
    p.add_argument("--surface", default="S11")
    p.add_argument("--weights", default="1", help="integer weights, one per cut curve")
    p.set_defaults(run=cmd_freq_compute)
    p = freq.add_parser("sum-b", parents=[common], help="partial sums of c over weights")
    p.add_argument("--surface", default="S11")
    p.add_argument("--cap", type=int, help="weight cap (default from budgets)")
    p.set_defaults(run=cmd_freq_sum_b)
    p = freq.add_parser("joint", parents=[common], help="joint frequency and identity")
    p.add_argument("--q1", type=int, default=1)
    p.add_argument("--q2", type=int, default=1)
    p.add_argument("--a", default="1", help="second moment a as a rational, e.g. 9/20")
    p.add_argument("--cap", type=int, help="identity partial-sum cap")
    p.set_defaults(run=cmd_freq_joint)

    tor = sub.add_parser("torus", help="once-punctured torus backend").add_subparsers(
        dest="action", required=True
    )
    p = tor.add_parser("count", parents=[common], help="s(X,1,L) and b(X,L)")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--length", type=float, required=True)
    p.set_defaults(run=cmd_torus_count)
    p = tor.add_parser("spectrum", parents=[common], help="simple length spectrum")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--length", type=float, required=True)
    p.set_defaults(run=cmd_torus_spectrum)
    p = tor.add_parser("mc", parents=[common], help="moduli-space Monte Carlo")
    p.add_argument(
        "--functional", default="one", help="one | B | B2 | ss:<k1>,<k2>:<L>"
    )
    p.add_argument("--samples", type=int, help="default from budgets")
    p.set_defaults(run=cmd_torus_mc)

    p = sub.add_parser("verify", parents=[common], help="acceptance suite")
    p.add_argument("--only", help="comma-separated check ids")
    p.set_defaults(run=cmd_verify)

    return top


def _resolve_config(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "threads", None) is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        updates["threads"] = args.threads
    if updates:
        d = cfg.to_dict()
        d.update(updates)
        cfg = RunConfig.from_dict(d)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.run(cfg, args)
    except ArithmeticError as exc:
        sys.stderr.write("numeric failure: %s\n" % exc)
        return 3
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        # KeyError carries a quoted message (unknown surface or table entry)
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write("error: %s\n" % msg)
        return 2


if __name__ == "__main__":
    sys.exit(main())
