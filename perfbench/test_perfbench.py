"""Tests of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench
"""

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

TINY_LADDERS = (
    ("S11", (1.0,), (1.0,), (100.0, 200.0)),
    ("S12", (0.75, 1.5), (1.25, 0.5), (10.0, 20.0)),
)


def tiny(name, seed):
    if name == "moduli-mc":
        return workloads.moduli_mc(seed, calls=4, samples=16)
    if name == "point-queries":
        return workloads.point_queries(seed, box=6, thin_side=2, radii=(8.0, 12.0))
    return workloads.closed_forms(seed, cap=20, s04_weights=2, cell_samples=2000, ladders=TINY_LADDERS)


def test_each_workload_runs_and_checks():
    for name in run.WORKLOADS:
        wl = tiny(name, 3)
        outputs, latency, refs = run.run_pass(wl)
        assert set(outputs) == set(latency) == {op.name for op in wl.ops}
        assert len(refs) == len(wl.ops) + 1 and min(refs) > 0
        assert not any(isinstance(out, workloads.Raised) for out in outputs.values()), name
        failures = wl.check(outputs)
        assert all(f.expected() for f in failures), [f.line() for f in failures]


def test_closed_forms_keeps_the_tie_cases():
    wl = tiny("closed-forms", 3)
    outputs, _, _ = run.run_pass(wl)
    known = [f for f in wl.check(outputs) if f.known]
    assert {f.known for f in known} <= set(workloads.KNOWN_DEFECTS)
    assert any(op.name.startswith("enumerate S20 w=0.3,0.7,2") for op in wl.ops)


def digest(wl, tracer=None):
    h = hashlib.sha256()
    run.run_pass(wl, tracer, hasher=h)
    return h.hexdigest()


def test_same_seed_same_digest_traced_or_not():
    digests = {digest(tiny("point-queries", 5)) for _ in range(2)}
    tracer = Tracer()
    with tracer.installed():
        digests.add(digest(tiny("point-queries", 5), tracer))
    assert len(digests) == 1
    assert digest(tiny("point-queries", 6)) not in digests


def test_wrappers_leave_the_library_unpatched():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in Tracer.boundaries()}
    tracer = Tracer()
    try:
        with tracer.installed():
            assert all(vars(o)[a] is not raw for (o, a), raw in before.items())
            run.run_pass(tiny("closed-forms", 1), tracer)
            raise KeyboardInterrupt  # restoring must survive any exit
    except KeyboardInterrupt:
        pass
    assert all(vars(o)[a] is raw for (o, a), raw in before.items())
    assert tracer.spans


def test_trace_counts_match_the_library_code():
    # 300 samples at 2 threads: more than one 256-sample chunk, so the
    # thread pool runs and spans cross threads
    wl = workloads.moduli_mc(9, calls=1, samples=300, threads=2)
    tracer = Tracer()
    wl.wrap_functional = lambda f: tracer.wrap("torus.mc.functional", f)
    with tracer.installed():
        run.run_pass(wl, tracer)
    m = layer_metrics(tracer.spans, passes=1)

    assert m["torus.b_hat.rung_use_ratio"] == 1 / 3
    kept = {}
    for s in tracer.spans:
        if s[2] == "torus.mc.functional":
            kept[s[5]] = kept.get(s[5], 0) + 1
    # one systole walk per sample, then the functional's walks when kept
    expected = sum(300 + kept.get(i, 0) * workloads.WALKS_PER_CALL[name]
                   for i, (name, _) in enumerate(workloads.MC_FUNCTIONALS))
    assert m["kernels.tree_walk.calls"] == expected
    assert m["kernels.tree_walk.per_sample"] == expected / (300 * len(workloads.MC_FUNCTIONALS))
    assert m["torus.fn_to_triple.per_sample"] == m["kernels.tree_walk.per_sample"]
    assert 0.8 < m["torus.mc.kept_ratio"] < 0.95
    assert 0 < m["runpar.busy_ratio"] <= 1.0


def test_op_times_divide_out_the_host_speed():
    wl = workloads.Workload("two", [workloads.Op("a", None), workloads.Op("b", None)], None, 2, "operation")
    # the second pass ran at half speed throughout: same latencies once corrected
    passes = [({"a": 0.010, "b": 0.004}, [0.001, 0.001, 0.001]),
              ({"a": 0.020, "b": 0.008}, [0.002, 0.002, 0.002]),
              ({"a": 0.013, "b": 0.006}, [0.001, 0.0015, 0.001])]
    assert run.fastest_reference(passes) == 0.001
    a, b = run.op_times(wl, passes)
    assert abs(a - 10 * run.REF_SECONDS) < 1e-12 and abs(b - 4 * run.REF_SECONDS) < 1e-12
    assert run.raw_best(wl, passes) == [0.010, 0.004]


def test_reference_is_fixed_work():
    assert run.reference() == run.reference() > 0


def test_tail_percentile():
    assert run.tail(list(range(320))) == (309, 100.0 * 310 / 320)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_fails_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "moduli-mc", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
