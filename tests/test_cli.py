"""Command-line interface: exit codes, JSON contracts, artifacts."""

import json
import math
import os
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from multicurve import cli, frequencies
from multicurve.config import RunConfig
from multicurve.volumes import volume_table_load


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_dt_enumerate(capsys):
    doc = run_json(
        capsys, ["dt", "enumerate", "--surface", "S11", "--weights", "1,1", "--length", "2"]
    )
    assert doc["count"] == 6
    assert doc["points"] == [
        [0, 1, 1.0],
        [0, 2, 2.0],
        [1, -1, 2.0],
        [1, 0, 1.0],
        [1, 1, 2.0],
        [2, 0, 2.0],
    ]
    assert doc["config"]["seed"] == RunConfig().seed


def test_dt_enumerate_out_csv(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    doc = run_json(
        capsys,
        [
            "dt", "enumerate", "--surface", "S11", "--weights", "1,1",
            "--length", "2", "--out", str(path),
        ],
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "m1,t1,length"
    assert len(lines) == 1 + doc["count"]
    assert lines[1].startswith("0,1,")


def test_measure_ball(capsys, tmp_path):
    plot = tmp_path / "ball.csv"
    doc = run_json(
        capsys,
        [
            "measure", "ball", "--surface", "S11", "--weights", "1,1",
            "--lengths", "50,100,200", "--out", str(plot),
        ],
    )
    assert doc["closed_form"] == pytest.approx(1.0)
    assert doc["fitted_rate"] == pytest.approx(-1.0, abs=0.4)
    assert len(doc["ladder"]) == 3
    # the estimate at L = 50 is 2550/50² = 1.02, over a closed form of 1
    assert plot.read_text() == (
        "x,y,yerr\n"
        "50,1.02,0.020000000000000018\n"
        "100,1.01,0.010000000000000009\n"
        "200,1.0049999999999999,0.0049999999999998934\n"
    )


def test_measure_ball_fits_no_rate_below_two_distinct_radii(capsys):
    # one radius, or one radius twice, leaves the slope undetermined
    for lengths in ("20", "20,20"):
        doc = run_json(capsys, ["measure", "ball", "--lengths", lengths])
        assert all(step["rel_error"] > 0 for step in doc["ladder"])
        assert doc["fitted_rate"] is None


def test_bounds_eval(capsys):
    doc = run_json(
        capsys, ["bounds", "eval", "--surface", "S11", "--lengths", "0.1"]
    )
    rep = doc["report"]
    assert rep["f_value"] == pytest.approx(4.342944819032518)
    assert rep["lower"] <= rep["upper"]
    assert rep["constants"]["k"] == 1
    assert doc["surface"] == "S11"


def test_cells_integrate_one(capsys):
    doc = run_json(
        capsys,
        [
            "cells", "integrate", "--surface", "S11", "--k", "0",
            "--functional", "one", "--samples", "50",
        ],
    )
    assert doc["result"]["estimate"] == pytest.approx(
        1.8475185646175554, rel=1e-12
    )
    assert doc["result"]["stderr"] == 0.0
    assert doc["cell_volume"] == doc["result"]["estimate"]


def test_cells_integrate_f2_exact_annotation(capsys):
    doc = run_json(
        capsys,
        [
            "cells", "integrate", "--surface", "S11", "--k", "1",
            "--functional", "F2", "--samples", "500",
        ],
    )
    assert doc["exact"] == pytest.approx(0.43429448190325176, rel=1e-12)
    res = doc["result"]
    assert abs(res["estimate"] - doc["exact"]) < 5 * res["stderr"]


def test_cells_dump_csv(capsys, tmp_path):
    dump = tmp_path / "cells.csv"
    run_json(
        capsys,
        [
            "cells", "integrate", "--surface", "S11", "--k", "1",
            "--functional", "one", "--samples", "10", "--dump", str(dump),
        ],
    )
    lines = dump.read_text().splitlines()
    assert lines[0] == "l1,t1"
    assert len(lines) == 11
    # rows are the seeded draws at full precision
    assert lines[1] == "0.098902274345248536,0.010338057219905572"
    assert lines[10] == "0.082923110832342897,0.070938229622127119"


def test_freq_compute(capsys):
    doc = run_json(capsys, ["freq", "compute", "--surface", "S11", "--weights", "2"])
    assert doc["frequency"]["P"] == "1/8*x0^2"
    assert doc["frequency"]["c"] == "1/8"
    assert doc["frequency"]["c_float"] == 0.125
    assert doc["frequency"]["kappa"] == "1"
    assert doc["weights"] == [2]


def test_freq_sum_b(capsys):
    doc = run_json(capsys, ["freq", "sum-b", "--surface", "S11", "--cap", "10"])
    assert doc["partial"] == "1968329/2540160"
    assert doc["partial_float"] == pytest.approx(0.7748838655832704, rel=1e-13)
    assert doc["closed_form"] == "1/12*pi^2"
    assert 0 < doc["gap"] <= doc["tail_bound"]
    assert doc["tail_bound"] == pytest.approx(0.05)


def test_freq_joint(capsys):
    doc = run_json(
        capsys, ["freq", "joint", "--q1", "1", "--q2", "2", "--a", "9/20", "--cap", "8"]
    )
    assert doc["joint"] == "81/20*pi^-4"
    assert doc["joint_float"] == pytest.approx(0.04157722813147156, rel=1e-12)
    assert doc["identity_partial_float"] <= doc["identity_target_float"]
    assert doc["identity_target_float"] == 0.45
    assert doc["b"] == "1/12*pi^2"


def test_freq_joint_checks_its_cap_before_any_frequency(capsys, monkeypatch):
    def no_frequency(*args):
        raise AssertionError("frequency computed before --cap was checked")

    monkeypatch.setattr(frequencies, "frequency", no_frequency)
    assert cli.main(["freq", "joint", "--cap", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --cap must be at least 1\n")


def test_freq_joint_identity_partial_is_the_double_sum(capsys):
    # the command sums the identity as joint_frequency(S, S, a, b) with S
    # the sum of the single frequencies; the double sum over weight pairs
    # gives the same bytes
    cap = 6
    doc = run_json(capsys, ["freq", "joint", "--q1", "2", "--q2", "3", "--a", "7/5",
                            "--cap", str(cap)])
    cut, kappa = cli._builtin_cut("S11")
    table = volume_table_load(None)
    a, b = frequencies.PiRat(Fraction(7, 5)), frequencies.b_closed_form_s11(kappa)
    singles = [frequencies.frequency(cut, [q], kappa, table) for q in range(1, cap + 1)]
    total = frequencies.PiRat(0)
    for u in singles:
        for v in singles:
            total = total + frequencies.joint_frequency(u, v, a, b)
    assert doc["identity_partial"] == str(total)
    assert doc["identity_partial_float"] == float(total)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="str(int) has no digit limit before Python 3.10.7")
def test_freq_sums_print_every_digit_past_the_str_limit(capsys):
    # Python writes at most 4,300 digits by str(int).  The exact partial
    # sums outgrew that at sum-b's cap 4,967 and at joint's cap near 2,500,
    # and both commands exited 2 on that valid input.  They now lift the
    # limit around their own str calls and restore it: on each side of the
    # old limits the value printed is the exact sum, and outside the
    # commands the limit holds.  The sums are written out here, not taken
    # from b_from_frequencies, which the commands themselves call: S11's
    # κ/2·Σ_{q<=cap} 1/q², and its joint a·S²/b² with b = κπ²/12
    limit = sys.get_int_max_str_digits()
    assert limit
    _, kappa = cli._builtin_cut("S11")
    a, b = frequencies.PiRat(Fraction(9, 20)), frequencies.PiRat.pi2(1, Fraction(kappa) / 12)
    cases = [(["freq", "sum-b", "--surface", "S11"], "partial", cap) for cap in (4500, 5000)]
    cases += [(["freq", "joint", "--q1", "1", "--q2", "2", "--a", "9/20"], "identity_partial", cap)
              for cap in (2400, 2600)]
    longest = []
    for argv, key, cap in cases:
        doc = run_json(capsys, argv + ["--cap", str(cap)])
        assert sys.get_int_max_str_digits() == limit
        value = frequencies.PiRat(Fraction(kappa) / 2 * sum(Fraction(1, q * q) for q in range(1, cap + 1)))
        if key == "identity_partial":
            value = a * value * value / (b * b)
        sys.set_int_max_str_digits(0)
        try:
            assert doc[key] == str(value), (argv, cap)
        finally:
            sys.set_int_max_str_digits(limit)
        assert doc[key + "_float"] == float(value)
        longest.append(max(map(len, doc[key].replace("/", " ").replace("*", " ").split())))
    # below and above the old limit, for each command
    assert [n > limit for n in longest] == [False, True, False, True], longest


def test_torus_count(capsys):
    ell = 2 * math.acosh(1.5)
    doc = run_json(
        capsys,
        ["torus", "count", "--ell", str(ell), "--tau", str(-ell / 2), "--length", "9"],
    )
    assert doc["count_simple"] == 24
    assert doc["count_multi"] == 36
    assert doc["normalized_multi"] == pytest.approx(36 / 81)
    assert doc["systole"]["multiplicity"] == 3
    assert doc["systole"]["slope"] == "1/0"


def test_torus_count_multi_counts_the_multiple_on_its_threshold(capsys):
    # the base curve has length 0.5, so its 40th multiple has length 20:
    # count_multi counts it, as count_s(X, 40, 20) counts the base curve
    assert cli.main(["torus", "count", "--ell", "0.5", "--tau", "0", "--length", "20"]) == 0
    assert '  "count_multi": 242,\n' in capsys.readouterr().out


THIN_COUNT = """{
  "L": 30.0,
  "config": {
    "seed": 20260814,
    "volume_table": null
  },
  "count_multi": 59596,
  "count_simple": 29597,
  "ell": 0.001,
  "normalized_multi": 66.21777777777778,
  "normalized_simple": 32.885555555555555,
  "systole": {
    "length": 0.0009999999998672742,
    "multiplicity": 1,
    "slope": "0/1"
  },
  "tau": 0.00037
}
"""


def test_torus_count_at_a_thin_point_prints_the_bytes_of_two_walks(capsys):
    # a thin point: count_simple and count_multi come from one tree walk
    # and its kept pair; the bytes are those printed when each count
    # walked the tree on its own
    assert cli.main(["torus", "count", "--ell", "1e-3", "--tau", "3.7e-4", "--length", "30"]) == 0
    assert capsys.readouterr().out == THIN_COUNT


def test_torus_spectrum_inline(capsys):
    doc = run_json(
        capsys,
        ["torus", "spectrum", "--ell", "1.3", "--tau", "0.475", "--length", "4"],
    )
    assert [row[:2] for row in doc["spectrum"]] == [
        [0, 1], [1, 0], [-1, 1], [1, 1], [-1, 2],
    ]
    assert doc["spectrum"][0][2] == pytest.approx(1.3)
    assert doc["count"] == 5


def test_torus_spectrum_csv(capsys, tmp_path):
    path = tmp_path / "spec.csv"
    doc = run_json(
        capsys,
        [
            "torus", "spectrum", "--ell", "1.3", "--tau", "0.475",
            "--length", "4", "--out", str(path),
        ],
    )
    # the artifact replaces the inline list
    assert "spectrum" not in doc
    assert doc["out"] == str(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,q,length"
    assert len(lines) == 6
    assert lines[1].startswith("0,1,1.3")


def test_torus_mc_seed_override(capsys):
    doc = run_json(
        capsys,
        ["torus", "mc", "--functional", "one", "--samples", "200", "--seed", "42"],
    )
    assert doc["result"]["seed"] == 42
    assert doc["config"]["seed"] == 42
    assert doc["result"]["estimate"] == pytest.approx(math.pi**2 / 6, rel=0.2)


@pytest.mark.parametrize("name, power", [("B", 1), ("B2", 2)])
def test_torus_mc_b_walks_once_per_point(monkeypatch, name, power):
    # B reads count_b(X, L)/L² in one walk: b_hat's top rung, without the
    # two rungs below it
    from multicurve import _kernels, torus

    points = [torus.TorusPoint(ell, 0.3 * ell) for ell in (1e-2, 0.5, 1.5)]
    expected = [torus.b_hat(X, torus.BHAT_LMAX) ** power for X in points]
    calls = []
    count_multi = _kernels.count_multi

    def counted(*args):
        calls.append(args)
        return count_multi(*args)

    monkeypatch.setattr(_kernels, "count_multi", counted)
    functional = cli._parse_functional_torus(name)
    assert [functional(X) for X in points] == expected
    assert len(calls) == len(points)


def test_reruns_are_byte_identical(capsys):
    argv = ["torus", "mc", "--functional", "one", "--samples", "100"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_usage_errors_exit_2(capsys, tmp_path):
    assert cli.main(["dt", "enumerate", "--surface", "S99", "--weights", "1,1", "--length", "2"]) == 2
    assert cli.main(["dt", "enumerate", "--surface", "S12", "--weights", "1,1,1", "--length", "2"]) == 2
    assert cli.main(["cells", "integrate", "--surface", "S11", "--k", "1", "--functional", "Fq", "--samples", "10"]) == 2
    assert cli.main(["freq", "sum-b", "--surface", "S11", "--cap", "0"]) == 2
    assert cli.main(["torus", "count", "--ell", "1.0", "--tau", "0", "--length", "5", "--config", "/nonexistent.json"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["torus", "count", "--ell", "1", "--tau", "0", "--length", "5", "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    # ValueError and OSError from the library reach main() unwrapped, which
    # prints them as it prints a ConfigError
    missing = tmp_path / "absent.txt"
    bad_table = tmp_path / "bad.txt"
    bad_table.write_text("V 1 1 : x\n")
    configs = {}
    for name, table in (("missing", missing), ("bad", bad_table)):
        configs[name] = tmp_path / (name + ".json")
        configs[name].write_text(json.dumps({"volume_table": str(table)}))
    # the thin threshold and the verify sizes are fixed in code, and a seed
    # or table of the wrong JSON type stops before the run
    for name, doc in (("epsilon", {"epsilon": 0.1}), ("budgets", {"budgets": {}}),
                      ("seed_str", {"seed": "abc"}), ("seed_float", {"seed": 1.5}),
                      ("table_num", {"volume_table": 5})):
        configs[name] = tmp_path / (name + ".json")
        configs[name].write_text(json.dumps(doc))
    cases = [
        (["torus", "count", "--ell", "-1", "--tau", "0", "--length", "5"],
         "base length must be positive and finite"),
        (["torus", "spectrum", "--ell", "1", "--tau", "nan", "--length", "5"],
         "twist must be finite"),
        (["freq", "compute", "--config", str(configs["missing"])],
         "[Errno 2] No such file or directory: %r" % str(missing)),
        (["freq", "joint", "--config", str(configs["bad"])],
         "volume table line 1: bad token 'x' in term 'x'"),
        # a second moment is positive: a <= 0 gives no joint frequency
        (["freq", "joint", "--a=-1/2", "--cap", "3"], "--a must be positive, got -1/2"),
        (["freq", "joint", "--a", "0", "--cap", "3"], "--a must be positive, got 0"),
        (["bounds", "eval", "--lengths", "-0.5"],
         "cuff lengths must be strictly positive and finite"),
        (["bounds", "eval", "--lengths", "3.0"],
         "cuff 1 has length 3 > bers bound 1.92485; pass a systole-adapted decomposition"),
        # past x = 1420 collar_width's sinh overflows: the bound is read first
        (["bounds", "eval", "--surface", "S11", "--lengths", "1500"],
         "cuff 1 has length 1500 > bers bound 1.92485; pass a systole-adapted decomposition"),
        (["cells", "integrate", "--floor", "0.5", "--samples", "10"],
         "thin_floor must lie in [0, eps)"),
        (["cells", "integrate", "--k", "1", "--functional", "Fp:0.5", "--samples", "10"],
         "power > 2 needs a positive thin_floor (not integrable)"),  # floor 0
        (["verify", "--only", "no-such-check"], "unknown checks: no-such-check"),
        (["verify", "--only", "determinism", "--config", str(configs["epsilon"])],
         "unknown config keys: epsilon"),
        (["torus", "mc", "--samples", "4", "--config", str(configs["budgets"])],
         "unknown config keys: budgets"),
        (["torus", "mc", "--samples", "4", "--config", str(configs["seed_str"])],
         "config seed must be an integer, got 'abc'"),
        (["torus", "mc", "--samples", "4", "--config", str(configs["seed_float"])],
         "config seed must be an integer, got 1.5"),
        (["torus", "mc", "--samples", "4", "--config", str(configs["table_num"])],
         "config volume_table must be a path or null, got 5"),
    ]
    for argv, msg in cases:
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", "error: %s\n" % msg), argv


def test_freq_names_only_surfaces_with_a_calibrated_kappa(capsys):
    # S04 has builtin cut data but no calibrated kappa, so it is not offered
    for argv in (["freq", "compute", "--surface", "S04"],
                 ["freq", "sum-b", "--surface", "S04"],
                 ["freq", "compute", "--surface", "S99"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: no builtin cut with a calibrated kappa for %s (available: S11)\n" % argv[3])


def _readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [l for l in readme.read_text(encoding="utf-8").splitlines()
             if l.startswith("$ multicurve ")]
    return [shlex.split(line)[2:] for line in dict.fromkeys(lines)]


def test_readme_commands_parse():
    # parse only: a flag the docs show must still exist
    argvs = _readme_commands()
    assert len(argvs) >= 10
    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        assert callable(args.run), argv


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    # each handler imports the modules it calls, so only running a command
    # shows that its imports are all there; artifacts go to tmp_path
    monkeypatch.chdir(tmp_path)
    for argv in _readme_commands():
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


_NO_ARRAYS = """
import contextlib, io, json, sys
import multicurve.cli
layers = ["multicurve." + m for m in ("torus", "verify", "_kernels", "wpcells", "bounds", "frequencies")]
heavy = ("numpy", "scipy", "concurrent.futures")
loaded = {"import": [m for m in heavy if m in sys.modules],
          "layers": [m for m in layers if m in sys.modules]}
for argv in (["freq", "sum-b", "--surface", "S11", "--cap", "10"],
             ["torus", "count", "--ell", "1.28", "--tau", "-0.96", "--length", "9"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert multicurve.cli.main(argv) == 0, argv
    loaded[argv[1]] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


def test_commands_without_arrays_start_without_numpy():
    # importing numpy takes about 0.11 s, more than the 0.09 s in which a
    # fresh interpreter imports the command line, and the thread pool and
    # scipy are never needed by a serial command: a fresh interpreter that
    # imports the command line and runs commands that build no array loads
    # none of them.  Importing the command line compiles none of the library
    # layers either: each handler imports those it calls
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NO_ARRAYS], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"import": [], "layers": [], "sum-b": [], "count": []}


def test_non_finite_numbers_exit_2(capsys):
    # NaN and inf used to pass: measure ball printed NaN (not JSON) and
    # dt enumerate listed no points, both with exit 0
    for bad in ("nan", "inf", "-inf"):
        # --opt=value: argparse would read a bare "-inf" as an option
        assert cli.main(["measure", "ball", "--lengths=10," + bad]) == 2
        assert cli.main(["measure", "ball", "--weights=%s,1" % bad, "--lengths", "10"]) == 2
        assert cli.main(["bounds", "eval", "--lengths", "0.5", "--twists=" + bad]) == 2
        assert cli.main(["dt", "enumerate", "--length=" + bad]) == 2
        assert cli.main(["torus", "count", "--ell", "1.0", "--tau", "0", "--length=" + bad]) == 2
        assert cli.main(["torus", "spectrum", "--ell", "1.0", "--tau", "0", "--length=" + bad]) == 2
        assert cli.main(["torus", "mc", "--functional", "ss:1,1:" + bad, "--samples", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_cells_integrate_bad_powers_fail_cleanly(capsys):
    # these printed "estimate": NaN after two numpy RuntimeWarnings, exit 0
    base = ["cells", "integrate", "--surface", "S11", "--k", "1", "--floor", "1e-3",
            "--samples", "1000", "--functional"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(base + ["Fp:800"]) == 3
        assert capsys.readouterr() == (
            "", "numeric failure: F^802.0 weights are not finite over thin lengths"
                " above floor 0.001\n")
        # finite weights whose squared deviations overflow
        assert cli.main(base + ["Fp:100"]) == 3
        assert capsys.readouterr() == (
            "", "numeric failure: F^102.0 weights overflow when summed or squared over thin"
                " lengths above floor 0.001\n")
        for bad in ("nan", "inf"):
            assert cli.main(base + ["Fp:" + bad]) == 2
            assert capsys.readouterr() == (
                "", "error: Fp:<delta> needs a finite delta, got 'Fp:%s'\n" % bad)
    assert caught == []


def test_epsilon_is_checked_alike_for_both_commands(capsys):
    # cells integrate named a bers_bound the user never set
    for argv in (["bounds", "eval", "--surface", "S11", "--lengths", "0.5"],
                 ["cells", "integrate", "--surface", "S11", "--samples", "10"]):
        for eps in ("1.5", "1", "0", "-0.1", "nan"):
            assert cli.main(argv + ["--epsilon", eps]) == 2, (argv, eps)
            assert capsys.readouterr() == ("", "error: --epsilon must lie in (0, 1)\n")
        assert cli.main(argv + ["--epsilon", "0.05"]) == 0, argv
        assert capsys.readouterr().err == ""


def test_missing_volume_table_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    d = RunConfig().to_dict()
    d["volume_table"] = str(tmp_path / "absent.txt")
    cfg.write_text(json.dumps(d))
    assert cli.main(["verify", "--only", "frequency-exactness", "--config", str(cfg)]) == 2
    assert "absent.txt" in capsys.readouterr().err


def test_degenerate_geometry_exits_3(capsys):
    # coth(ell/2) rounds to 1 at ell = 800, cosh(ell/2) at ell = 1e-8; at
    # (19.5, 17.55) and (45, 44.95) no slope reads as short enough to be a
    # systole, and both used to print a wrong one and exit 0
    for ell, tau, length in (("800", "0", "5"), ("1e-8", "0", "9"),
                             ("19.5", "17.55", "4"), ("45", "44.95", "5")):
        assert cli.main(["torus", "count", "--ell", ell, "--tau", tau, "--length", length]) == 3
        err = capsys.readouterr().err
        assert "degenerated" in err
    # x*y - z = 2.000025 cancels to -832 here: the walk raised a bare
    # "math domain error" and exited 2
    assert cli.main(["torus", "count", "--ell", "40", "--tau", "39.99", "--length", "90"]) == 3
    assert "root traces must lie in (2, inf)" in capsys.readouterr().err
    # a twist bound of 2e300 is no int64: the lattice count raises, not wraps
    assert cli.main(["measure", "ball", "--surface", "S11", "--weights", "1,1e-300", "--lengths", "2"]) == 3
    assert "too large to count in int64" in capsys.readouterr().err


def test_ball_past_its_budget_exits_3_at_once(capsys):
    # S11 at L = 3.5e9 walks 3.5e9 m-values, about 210 s; the budget of 1e8
    # rows is checked before the walk
    start = time.perf_counter()
    code = cli.main(["measure", "ball", "--surface", "S11", "--lengths", "3.5e9"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("numeric failure: a ball of radius 3500000000.0 may hold up to "
                            "3.5e+09 m-vectors, above the budget of 1e+08\n")
    assert elapsed < 1.0, elapsed
    # a ball inside the budget counts as before: L^2 + L points at weight 1
    doc = run_json(capsys, ["measure", "ball", "--surface", "S11", "--lengths", "16000"])
    assert doc["ladder"][0]["estimate"] == (16000**2 + 16000) / 16000**2


def test_frequency_caps_past_their_budget_exit_3_at_once():
    # freq joint summed its singles one q at a time and did not stop at a
    # cap of 10^20; both commands now count the weights before summing.  A
    # child interpreter runs them, so that a sum that did start is stopped
    # by the timeout
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for argv, cap in ((["freq", "joint"], 10**20), (["freq", "sum-b", "--surface", "S11"], 10**9)):
        start = time.perf_counter()
        ran = subprocess.run([sys.executable, "-m", "multicurve.cli", *argv, "--cap", str(cap)],
                             capture_output=True, text=True, env=env, timeout=30)
        elapsed = time.perf_counter() - start
        assert (ran.returncode, ran.stdout) == (3, ""), ran.stderr[-2000:]
        assert ran.stderr == ("numeric failure: frequency sums to cap %d hold %d weight vectors, "
                              "above the budget of 100000\n" % (cap, cap)), ran.stderr
        assert elapsed < 10.0, (argv, elapsed)


def test_sample_arrays_larger_than_memory_exit_3():
    # 10^14 samples ask numpy for 728 TiB at once, which it refuses without
    # allocating; both commands printed an _ArrayMemoryError traceback and
    # exited 1, the code of a failed verify check.  A child interpreter
    # with a 1 GB address space runs them, so that a host which would grant
    # the array fails this test alone
    child = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from multicurve import cli
sys.exit(cli.main(sys.argv[1:]))
"""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for argv in (["torus", "mc", "--functional", "B"],
                 ["cells", "integrate", "--surface", "S11", "--k", "1", "--floor", "1e-3"]):
        ran = subprocess.run([sys.executable, "-c", child, *argv, "--samples", "100000000000000"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert (ran.returncode, ran.stdout) == (3, ""), ran.stderr[-2000:]
        assert ran.stderr.startswith("out of memory: Unable to allocate 728. TiB"), ran.stderr
        assert ran.stderr.count("\n") == 1, ran.stderr


def test_verify_single_check_passes(capsys):
    assert cli.main(["verify", "--only", "frequency-exactness"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] frequency-exactness" in out
    # the report ends with the resolved config, which is the seed and the
    # volume table alone
    resolved = out.split("resolved config:\n", 1)[1]
    assert json.loads(resolved) == {"seed": 20260814, "volume_table": None}


def test_verify_fails_on_wrong_volume_table(capsys, tmp_path):
    table = tmp_path / "vols.txt"
    # an explicit pair-of-pants volume of 2 doubles every S11 counting
    # polynomial, so the symbolic comparison must fail
    table.write_text("V 0 3 : 2\nV 1 1 : 1/6 pi2 ; 1/24 b1^2\n")
    cfg = tmp_path / "run.json"
    d = RunConfig().to_dict()
    d["volume_table"] = str(table)
    cfg.write_text(json.dumps(d))
    code = cli.main(
        ["verify", "--only", "frequency-exactness", "--config", str(cfg)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] frequency-exactness" in out


def test_verify_report_artifact(capsys, tmp_path):
    path = tmp_path / "report.txt"
    assert cli.main(["verify", "--only", "determinism", "--out", str(path)]) == 0
    text = path.read_text()
    assert "[PASS] determinism" in text
    assert capsys.readouterr().out  # also printed to stdout


def test_verify_report_file_is_stdout_bytes(capsys, tmp_path):
    # the report holds non-ASCII text such as "P(L,q·γ)"
    path = tmp_path / "report.txt"
    assert cli.main(["verify", "--only", "frequency-exactness", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "γ" in out
    assert path.read_bytes() == out.encode("utf-8")
