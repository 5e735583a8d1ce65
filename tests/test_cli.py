"""Command-line interface: exit codes, JSON contracts, artifacts."""

import json
import math

import pytest

from multicurve import cli
from multicurve.config import RunConfig


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
    assert doc["config"]["surface"] == "S11"
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
    lines = plot.read_text().splitlines()
    assert lines[0] == "x,y,yerr"
    assert len(lines) == 4


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


def test_freq_compute(capsys):
    doc = run_json(capsys, ["freq", "compute", "--surface", "S11", "--weights", "2"])
    assert doc["frequency"]["P"] == "1/8*x0^2"
    assert doc["frequency"]["c"] == "1/8"
    assert doc["frequency"]["c_float"] == 0.125
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


def test_reruns_are_byte_identical(capsys):
    argv = ["torus", "mc", "--functional", "one", "--samples", "100"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_threads_do_not_change_output(capsys):
    base = ["cells", "integrate", "--surface", "S11", "--k", "1",
            "--functional", "F2", "--samples", "400"]
    assert cli.main(base) == 0
    one = json.loads(capsys.readouterr().out)
    assert cli.main(base + ["--threads", "4"]) == 0
    four = json.loads(capsys.readouterr().out)
    assert one["result"]["estimate"] == four["result"]["estimate"]
    assert one["config"]["threads"] == 1 and four["config"]["threads"] == 4


def test_usage_errors_exit_2(capsys):
    assert cli.main(["dt", "enumerate", "--surface", "S99", "--weights", "1,1", "--length", "2"]) == 2
    assert cli.main(["dt", "enumerate", "--surface", "S12", "--weights", "1,1,1", "--length", "2"]) == 2
    assert cli.main(["cells", "integrate", "--surface", "S11", "--k", "1", "--functional", "Fq", "--samples", "10"]) == 2
    assert cli.main(["cells", "integrate", "--surface", "S11", "--k", "1", "--functional", "Fp:0.5", "--samples", "10"]) == 2  # floor 0
    assert cli.main(["freq", "sum-b", "--surface", "S11", "--cap", "0"]) == 2
    assert cli.main(["verify", "--only", "no-such-check"]) == 2
    assert cli.main(["torus", "count", "--ell", "1.0", "--tau", "0", "--length", "5", "--config", "/nonexistent.json"]) == 2
    capsys.readouterr()


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


def test_missing_volume_table_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    d = RunConfig().to_dict()
    d["volume_table"] = str(tmp_path / "absent.txt")
    cfg.write_text(json.dumps(d))
    assert cli.main(["verify", "--only", "frequency-exactness", "--config", str(cfg)]) == 2
    assert "absent.txt" in capsys.readouterr().err


def test_degenerate_geometry_exits_3(capsys):
    assert cli.main(["torus", "count", "--ell", "800", "--tau", "0", "--length", "5"]) == 3
    err = capsys.readouterr().err
    assert "degenerated" in err


def test_verify_single_check_passes(capsys):
    assert cli.main(["verify", "--only", "frequency-exactness"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] frequency-exactness" in out


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
