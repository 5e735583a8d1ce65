"""multicurve benchmark: seeded workloads, checked outputs, end-to-end metrics,
and a traced run for per-module metrics.

    python3 perfbench/run.py --workload moduli-mc --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from its
``src/`` directory, never from an installed copy, and the run fails (exit 2)
when that directory is missing.

A run builds the workload's inputs from the seed, times fresh interpreters
that import the library, and repeats passes over the workload's operations
until ``--seconds`` have elapsed.  Every pass must reproduce the first one's
outputs, which are then checked against independent references.

Times are taken against a reference kernel.  The host's speed drifts: on a
shared 2-vCPU machine the same operation ran anywhere from 1x to 2.5x its
fastest time, in episodes lasting seconds to minutes, and even the fastest
time of a 45-s run moved 10% from run to run, so best-of-passes wall times
of whole runs spread 30% between runs.  The harness therefore times a fixed
piece of interpreter work (``reference``, about 0.6 ms) before every
operation and after the last one, and divides each operation's time by the
mean of the two reference times around it: the operation's cost in units of
the reference kernel, as CPU cycles are a cost in units of the clock.  Each
operation's cost is the median of that ratio over the passes, reported in
seconds at ``REF_SECONDS`` per reference run, the kernel's fastest time on
the machine the baseline was taken on.  Ten 30-s runs of one workload
spread 2-5.5% this way.  The raw best-of-passes wall time and the run's own
fastest reference time are printed too.  End-to-end metrics (``--trace 0``):

- setup_s: median wall time of five fresh interpreters that import
  ``multicurve.cli``, build ``RunConfig()`` and load the bundled volume
  table.  It is not taken against the reference kernel: import time
  follows the host's speed far less than interpreter work does, and over
  ten runs the ratio to reference times taken around each probe spread 41%
  against 15% for the wall time;
- wall_s: one pass, as the sum of the operations' latencies;
- items_per_s: work items per pass over wall_s (Monte Carlo samples on
  moduli-mc, queries on point-queries, operations on closed-forms);
- op_p50_ms, op_tail_ms: median and highest percentile with ten operations
  beyond it of the operations' latencies (the percentile is printed);
- peak_rss_mb: peak resident memory of this process.

With ``--trace 1`` half the time runs untraced and half with wrappers on the
library's module boundaries; the run reports per-module metrics instead,
prints the kernel micro-table, and writes the last traced pass's spans to
``.perfbench-out/trace-<workload>.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts the
operations checked (workload operations and micro-table cases), ``failed``
those whose output missed its reference.  ``correct`` is false when a miss is
neither a listed known defect nor a statistical miss within 5 sigma, or when
a repeated pass changed an output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPEATS = 5
REF_DEPTH = 10  # the reference kernel visits 2^11 - 1 nodes
# seconds per reference run: the kernel's fastest time in a run on 2 shared
# vCPUs of an Intel Xeon, Python 3.11.7 (0.49-0.60 ms over fifteen runs).
# A fixed constant, so that a host slower or faster on the day moves no metric.
REF_SECONDS = 0.56e-3
WORKLOADS = ("moduli-mc", "point-queries", "closed-forms")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


# ---------------------------------------------------------------------------
# reference kernel


def _ref_visit(p, q):
    return math.floor(64.0 / math.acosh(1.0 + p / q))


def reference():
    """Fixed interpreter work to time the host's speed against: a walk of
    the Stern-Brocot tree to depth REF_DEPTH with float work at each node,
    the same kind of work (calls, tuples, float math) as the library's
    pure-Python tree walks, but benchmark code that no change to the library
    touches."""
    total = 0
    stack = [(0, 1, 1, 0, 0)]
    while stack:
        a, b, c, d, depth = stack.pop()
        p, q = a + c, b + d
        total += _ref_visit(p, q)
        if depth < REF_DEPTH:
            stack.append((a, b, p, q, depth + 1))
            stack.append((p, q, c, d, depth + 1))
    return total


def time_reference():
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# environment and set-up


def _git_commit():
    if not (ROOT / ".git").exists():
        return "not taken: not a git checkout"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return "not taken: %s" % exc
    return done.stdout.strip() if done.returncode == 0 else "not taken: git failed"


def environment(seed: int, workload: str) -> dict:
    import importlib.util

    import multicurve
    import numpy
    import scipy

    try:
        import multicurve._kernels._ckernels  # noqa: F401
        ckernels = "imports"
    except ImportError as exc:
        ckernels = "absent: %s" % exc
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel_backend": multicurve.kernel_backend,
        "cython": "imports" if importlib.util.find_spec("Cython") else "absent",
        "ckernels": ckernels,
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def probe_setup(repeats: int):
    """Wall time of fresh interpreters running setup_probe.py, with the
    in-process timings each one reports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    runs = []
    for _ in range(repeats):
        t0 = perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % done.stderr.strip()[-500:])
        report = json.loads(done.stdout.splitlines()[-1])
        if not Path(report["package"]).resolve().is_relative_to(SRC):
            raise RuntimeError("set-up probe imported %s, not the checkout" % report["package"])
        report["wall_s"] = wall
        runs.append(report)
    return runs


# ---------------------------------------------------------------------------
# passes


def run_pass(wl, tracer=None, first_op=0, hasher=None):
    """Every operation once; returns (outputs, latencies, reference times),
    each output reduced by its operation's `keep`.  The reference kernel is
    timed before every operation and after the last.  An operation that
    raises yields a Raised record.  A hasher is fed every whole output, repr
    keeping floats exact."""
    from workloads import Raised

    outputs, latency, refs = {}, {}, []
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = first_op + i
        refs.append(time_reference())
        t0 = perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # reported as a failed operation
            out = Raised(type(exc).__name__, str(exc))
        latency[op.name] = perf_counter() - t0
        if hasher is not None:
            hasher.update(("%s=%r\n" % (op.name, out)).encode())
        outputs[op.name] = op.keep(out) if op.keep and not isinstance(out, Raised) else out
    refs.append(time_reference())
    return outputs, latency, refs


def timed_passes(wl, seconds, reference, mismatched, tracer=None, hasher=None):
    """Passes until `seconds` have elapsed (at least one), each compared
    with the reference outputs.  While `reference` is empty the first pass
    fills it, feeding `hasher`; it is timed like the others.  Returns one
    (latencies, reference times) pair per pass."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        first = not reference
        outputs, latency, refs = run_pass(wl, tracer, len(passes) * len(wl.ops), hasher if first else None)
        if first:
            reference.update(outputs)
        for name, out in outputs.items():
            if repr(out) != repr(reference[name]):
                mismatched.add(name)
        passes.append((latency, refs))
    return passes


def tail(values):
    """(value, percentile) of the highest percentile with at least ten values
    beyond it; the maximum when there are fewer than eleven values."""
    v = sorted(values)
    k = len(v) - 10
    if k < 1:
        return v[-1], 100.0
    return v[k - 1], 100.0 * k / len(v)


def fastest_reference(passes):
    return min(min(refs) for _, refs in passes)


def op_times(wl, passes):
    """Each operation's cost: the median over the passes of its time over
    the mean reference time around it, in seconds at REF_SECONDS per
    reference run."""
    return [REF_SECONDS * statistics.median(lat[op.name] / (0.5 * (refs[i] + refs[i + 1]))
                                            for lat, refs in passes)
            for i, op in enumerate(wl.ops)]


def raw_best(wl, passes):
    """Each operation's fastest wall time over the passes, uncorrected."""
    return [min(lat[op.name] for lat, _ in passes) for op in wl.ops]


def end_to_end(wl, passes, setup):
    per_op = op_times(wl, passes)
    wall = math.fsum(per_op)
    tail_v, tail_p = tail(per_op)
    all_refs = [r for _, refs in passes for r in refs]
    print("op_tail_ms is p%.4g of %d %s latencies, each the median of %d passes"
          % (tail_p, len(per_op), "operation" if wl.item_kind != "query" else "query", len(passes)))
    print("reference kernel: fastest %.4g ms, median %.4g ms over %d runs; times at %.4g ms per run"
          % (fastest_reference(passes) * 1e3, statistics.median(all_refs) * 1e3, len(all_refs),
             REF_SECONDS * 1e3))
    print("uncorrected: wall_s %.6g as the sum of best-of-passes latencies"
          % math.fsum(raw_best(wl, passes)))
    return {
        "setup_s": (statistics.median(r["wall_s"] for r in setup), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (wl.items / wall, "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail_v * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def unit_of(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def traced(wl, seconds, reference, mismatched, setup, hasher):
    from tracer import Tracer, layer_metrics

    import kernel_table

    half = seconds / 2.0
    plain = timed_passes(wl, half, reference, mismatched, hasher=hasher)
    tracer = Tracer()
    wl.wrap_functional = lambda f: tracer.wrap("torus.mc.functional", f)
    try:
        with tracer.installed():
            passes = timed_passes(wl, half, reference, mismatched, tracer)
    finally:
        wl.wrap_functional = None
    metrics = layer_metrics(tracer.spans, len(passes))
    metrics["setup.import_s"] = statistics.median(r["import_s"] for r in setup)
    metrics["volumes.volume_table_load_s"] = statistics.median(r["volume_table_load_s"] for r in setup)
    metrics["trace.overhead_s"] = math.fsum(op_times(wl, passes)) - math.fsum(op_times(wl, plain))
    print("trace: %d untraced and %d traced passes, %d spans; kernels.trace_of_slope is not "
          "reported: no workload operation calls it at this commit (see micro.trace_of_slope.*)"
          % (len(plain), len(passes), len(tracer.spans)))

    rows, micro, micro_failures = kernel_table.run()
    print(kernel_table.render(rows))
    metrics.update(micro)

    # the spans of the last traced pass only: a pass can make 10^5 of them
    last = len(passes) - 1
    spans = [s for s in tracer.spans if s[5] is not None and s[5] // len(wl.ops) == last]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / ("trace-%s.json" % wl.name), "w") as fh:
        json.dump({"workload": wl.name, "ops": [op.name for op in wl.ops],
                   "fields": ["id", "parent", "name", "start", "end", "op", "note"],
                   "spans": spans}, fh, separators=(",", ":"))
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, micro_failures


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multicurve" / "__init__.py").is_file():
        print("perfbench: no library source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import multicurve

    if not Path(multicurve.__file__).resolve().is_relative_to(SRC):
        print("perfbench: imported %s, not the checkout" % multicurve.__file__, file=sys.stderr)
        return 2

    import workloads

    print("env " + json.dumps(environment(args.seed, args.workload), sort_keys=True))
    setup = probe_setup(SETUP_REPEATS)
    wl = workloads.BUILDERS[args.workload](args.seed)

    hasher = hashlib.sha256()
    first, mismatched = {}, set()
    failures = []
    attempted = len(wl.ops)
    if args.trace:
        import kernel_table

        metrics, micro_failures = traced(wl, args.seconds, first, mismatched, setup, hasher)
        attempted += len(kernel_table.CASES)
        failures += [workloads.Failure(case, detail, known=known) for case, detail, known in micro_failures]
    else:
        passes = timed_passes(wl, args.seconds, first, mismatched, hasher=hasher)
        metrics = end_to_end(wl, passes, setup)
    print("digest %s seed %d: %d operations, sha256 %s"
          % (wl.name, args.seed, len(wl.ops), hasher.hexdigest()))

    try:
        failures += wl.check(first)
    except Exception as exc:  # an output the check could not read
        failures.append(workloads.Failure("check", "raised %s: %s" % (type(exc).__name__, exc)))
    failures += [workloads.Failure(name, repr(out)) for name, out in first.items()
                 if isinstance(out, workloads.Raised)]
    failures += [workloads.Failure(name, "output changed between passes") for name in sorted(mismatched)]

    for f in failures:
        print(f.line())
    failed = len({f.case for f in failures})
    result = {
        "correct": all(f.expected() for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
