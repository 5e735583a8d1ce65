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

Every command but verify prints a JSON document that embeds the fully
resolved configuration, so a saved output is a complete record of the run;
verify prints a plain-text report that ends with that configuration.  Exit
codes: 0 success, 1 verification check failed, 2 invalid configuration or
arguments, 3 numeric failure.

Each command handler imports the library modules it calls, so importing
this module loads only the argument parser and the run configuration; a
command compiles the layers it runs and no others.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

from .config import ConfigError, RunConfig, load_config


def _cell(v) -> str:
    if isinstance(v, int):
        return str(v)
    return "%.17g" % v


def _write_csv(path: str, header, rows) -> None:
    """Write a header line and one line per row, ints as str and floats as
    %.17g; no rows gives a header-only file."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


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
    from .dtlattice import CombWeights

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
    from . import dtlattice
    from .topology import builtin_surface

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
        _write_csv(args.out, header, rows)
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


# ---------------------------------------------------------------------------
# measure


def cmd_measure_ball(cfg: RunConfig, args) -> int:
    from . import thurston
    from .topology import builtin_surface

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
        _write_csv(args.out, ("x", "y", "yerr"),
                   ((L, est, abs(est - closed)) for L, est, err in ladder))
        doc["out"] = args.out
    _emit(doc, cfg, None)
    return 0


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds_eval(cfg: RunConfig, args) -> int:
    from . import bounds
    from .hypfun import BERS_BOUNDS, Constants, FNPoint
    from .topology import builtin_surface

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
    consts = Constants(bers_bound=BERS_BOUNDS[args.surface])
    if args.epsilon is not None:
        consts = dataclasses.replace(consts, epsilon=args.epsilon)
    fn = FNPoint(tuple(lengths), tuple(twists))
    report = bounds.bound_report(surf, fn, consts)
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
        if not math.isfinite(delta):
            raise ConfigError("Fp:<delta> needs a finite delta, got %r" % text)
        return ("power", 2.0 + delta)
    raise ConfigError(
        "unknown functional %r (choices: one, F2, Fp:<delta>, B-comb)" % text
    )


def cmd_cells_integrate(cfg: RunConfig, args) -> int:
    from . import bounds, wpcells
    from .hypfun import BERS_BOUNDS, EPSILON
    from .topology import builtin_surface

    surf, _dec = builtin_surface(args.surface)
    eps = EPSILON if args.epsilon is None else args.epsilon
    spec = wpcells.CellSpec(
        surface=surf,
        thin_count=args.k,
        eps=eps,
        bers_bound=BERS_BOUNDS[args.surface],
        thin_floor=args.floor,
    )
    kind, power = _parse_functional_cells(args.functional)
    if kind == "power":
        res = wpcells.f_power_mc(spec, power, args.samples, cfg.seed)
    else:
        if kind == "one":
            functional = lambda fn: 1.0
        else:
            functional = lambda fn: bounds.b_comb(surf, fn)
        res = wpcells.mc_integrate(functional, spec, args.samples, cfg.seed)
    doc = {
        "surface": args.surface,
        "cell": {
            "thin_count": spec.thin_count,
            "eps": spec.eps,
            "bers_bound": spec.bers_bound,
            "thin_floor": spec.thin_floor,
        },
        "functional": args.functional,
        "result": dataclasses.asdict(res),
        "cell_volume": wpcells.cell_volume(spec),
    }
    if kind == "power" and power == 2.0 and spec.thin_floor == 0.0:
        doc["exact"] = wpcells.f2_cell_integral(spec)
    if args.dump:
        names = ["l%d" % i for i in range(1, surf.cuff_count + 1)]
        names += ["t%d" % i for i in range(1, surf.cuff_count + 1)]
        _write_csv(args.dump, names,
                   (fn.lengths + fn.twists
                    for fn in wpcells.sample_cell(spec, args.samples, cfg.seed)))
        doc["dump"] = args.dump
    _emit(doc, cfg, args.out)
    return 0


# ---------------------------------------------------------------------------
# freq


def _builtin_cut(surface: str):
    """The surface's builtin cut and its calibrated kappa."""
    from . import frequencies

    if surface not in frequencies.KAPPA:
        raise ConfigError(
            "no builtin cut with a calibrated kappa for %s (available: %s)"
            % (surface, ", ".join(sorted(frequencies.KAPPA)))
        )
    return frequencies.BUILTIN_CUTS[surface](), frequencies.KAPPA[surface]


def cmd_freq_compute(cfg: RunConfig, args) -> int:
    from . import frequencies
    from .volumes import volume_table_load

    cut, kappa = _builtin_cut(args.surface)
    table = volume_table_load(cfg.volume_table)
    try:
        wts = [int(v) for v in args.weights.split(",")]
    except ValueError:
        raise ConfigError("--weights must be comma-separated integers")
    if len(wts) != cut.k or any(v < 1 for v in wts):
        raise ConfigError("--weights needs %d positive integers" % cut.k)
    poly = frequencies.count_polynomial(cut, wts, kappa, table)
    c = poly.coefficient((cut.surface.dim,))
    report = frequencies.FrequencyReport(
        p_poly=poly, c_exact=c, c_float=float(c), kappa=Fraction(kappa)
    )
    _emit({"surface": args.surface, "weights": wts, "frequency": report.as_dict()},
          cfg, args.out)
    return 0


def cmd_freq_sum_b(cfg: RunConfig, args) -> int:
    from . import frequencies
    from .volumes import volume_table_load

    cut, kappa = _builtin_cut(args.surface)
    if args.surface != "S11":
        raise ConfigError(
            "the closed-form target is only known for S11; got %s" % args.surface
        )
    table = volume_table_load(cfg.volume_table)
    if args.cap < 1:
        raise ConfigError("--cap must be at least 1")
    partial, tail = frequencies.b_from_frequencies(
        cut.surface, [(cut, kappa)], table, args.cap
    )
    closed = frequencies.b_closed_form_s11(kappa)
    doc = {
        "surface": args.surface,
        "cap": args.cap,
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
    from . import frequencies
    from .volumes import volume_table_load

    cut, kappa = _builtin_cut("S11")
    table = volume_table_load(cfg.volume_table)
    if args.q1 < 1 or args.q2 < 1:
        raise ConfigError("--q1 and --q2 must be positive integers")
    a = _parse_rational(args.a, "--a")
    if a <= 0:
        raise ConfigError("--a must be positive, got %s" % args.a)
    a = frequencies.PiRat(a)
    b = frequencies.b_closed_form_s11(kappa)
    c1 = frequencies.frequency(cut, [args.q1], kappa, table)
    c2 = frequencies.frequency(cut, [args.q2], kappa, table)
    c12 = frequencies.joint_frequency(c1, c2, a, b)
    if args.cap < 1:
        raise ConfigError("--cap must be at least 1")
    # partial double sum of the identity  sum c(q1 g, q2 g) = a over
    # q1, q2 <= cap: joint_frequency is bilinear in its marginals, so the
    # sum is joint_frequency(S, S, a, b) with S the sum of the singles,
    # which b_from_frequencies sums within its budget
    singles, _ = frequencies.b_from_frequencies(cut.surface, [(cut, kappa)], table, args.cap)
    total = frequencies.joint_frequency(singles, singles, a, b)
    doc = {
        "q1": args.q1,
        "q2": args.q2,
        "a": str(a),
        "b": str(b),
        "c1": str(c1),
        "c2": str(c2),
        "joint": str(c12),
        "joint_float": float(c12),
        "cap": args.cap,
        "identity_partial": str(total),
        "identity_partial_float": float(total),
        "identity_target_float": float(a),
    }
    _emit(doc, cfg, args.out)
    return 0


# ---------------------------------------------------------------------------
# torus


def cmd_torus_count(cfg: RunConfig, args) -> int:
    from . import torus

    X = torus.TorusPoint(args.ell, args.tau)
    if not 0 < args.length < math.inf:
        raise ConfigError("--length must be positive and finite")
    L = args.length
    simple = torus.count_s(X, 1, L)
    multi = torus.count_b(X, L)
    slope, syslen, mult = torus.systole_slope(X)
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
    from . import torus

    X = torus.TorusPoint(args.ell, args.tau)
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
        _write_csv(args.out, ("p", "q", "length"), ((s.p, s.q, l) for s, l in spectrum))
        doc["out"] = args.out
    else:
        doc["spectrum"] = [[s.p, s.q, l] for s, l in spectrum]
    _emit(doc, cfg, None)
    return 0


def _parse_functional_torus(text: str):
    from . import torus

    if text == "one":
        return lambda X: 1.0
    lmax = torus.BHAT_LMAX
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
    from . import torus

    functional = _parse_functional_torus(args.functional)
    if args.samples < 2:
        raise ConfigError("--samples must be at least 2")
    res = torus.mc_moduli(functional, args.samples, cfg.seed)
    doc = {"functional": args.functional, "result": dataclasses.asdict(res)}
    _emit(doc, cfg, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig, args) -> int:
    from . import verify

    only = None
    if args.only:
        only = [v for v in args.only.split(",") if v]
    status, report = verify.run_verify(cfg, only)
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
    p.add_argument("--cap", type=int, default=100, help="weight cap")
    p.set_defaults(run=cmd_freq_sum_b)
    p = freq.add_parser("joint", parents=[common], help="joint frequency and identity")
    p.add_argument("--q1", type=int, default=1)
    p.add_argument("--q2", type=int, default=1)
    p.add_argument("--a", default="1", help="second moment a as a rational, e.g. 9/20")
    p.add_argument("--cap", type=int, default=100, help="identity partial-sum cap")
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
    p.add_argument("--samples", type=int, default=8000)
    p.set_defaults(run=cmd_torus_mc)

    p = sub.add_parser("verify", parents=[common], help="acceptance suite")
    p.add_argument("--only", help="comma-separated check ids")
    p.set_defaults(run=cmd_verify)

    return top


def _resolve_config(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        # the thin-threshold override of bounds eval and cells integrate
        if getattr(args, "epsilon", None) is not None and not 0 < args.epsilon < 1:
            raise ConfigError("--epsilon must lie in (0, 1)")
        return args.run(cfg, args)
    except ArithmeticError as exc:
        sys.stderr.write("numeric failure: %s\n" % exc)
        return 3
    except MemoryError as exc:
        sys.stderr.write("out of memory: %s\n" % (str(exc) or "allocation failed"))
        return 3
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        # KeyError carries a quoted message (unknown surface or table entry)
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write("error: %s\n" % msg)
        return 2


if __name__ == "__main__":
    sys.exit(main())
