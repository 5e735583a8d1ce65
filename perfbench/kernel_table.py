"""The kernel micro-table: each `_kernels` entry point on fixed inputs.

Times the active backend alone when only one imports; when both the compiled
and the pure backend import, every case is first checked for bit-equality
between them and then both are timed.  Cases with a known wrong result stay
in the table and count as failed operations.
"""

from __future__ import annotations

import importlib
import math
import timeit

from multicurve import _kernels, dtlattice, topology

SYM = (3.0, 3.0, 3.0)  # square once-punctured torus, traces of the root slopes


def _ball_args(name, L):
    surface, pants = topology.builtin_surface(name)
    n = surface.cuff_count
    ws = tuple(0.9 + 0.15 * i for i in range(n))
    ls = tuple(1.1 - 0.1 * i for i in range(n))
    return ws, ls, dtlattice.parity_masks(pants), float(L)


def _trace_ok(t):
    return math.isfinite(t) and t > 2.0


# (metric case, kernel, args, calls per timing round, result check, known defect)
CASES = (
    ("S11_L1e4", "count_ball", _ball_args("S11", 10000), 1, None, None),
    ("S12_L100", "count_ball", _ball_args("S12", 100), 1, None, None),
    ("S20_L30", "count_ball", _ball_args("S20", 30), 1, None, None),
    ("sym_L30", "slopes_upto", SYM + (30.0,), 20, None, None),
    ("sym_L30", "count_upto", SYM + (30.0,), 20, None, None),
    ("sym_L30", "count_multi", SYM + (30.0,), 20, None, None),
    ("sym_1_250", "trace_of_slope", SYM + (1, 250), 500, _trace_ok, None),
    # deep Fibonacci slope: the trace overflows to NaN on both backends
    ("sym_6765_10946", "trace_of_slope", SYM + (6765, 10946), 500, _trace_ok, "trace-nan"),
)


def backends() -> dict:
    """Importable backends by name; the active one always comes first."""
    out = {_kernels.BACKEND: _kernels}
    for name, mod in (("c", "_ckernels"), ("pure", "_pykernels")):
        if name in out:
            continue
        try:
            out[name] = importlib.import_module("multicurve._kernels." + mod)
        except ImportError:
            pass
    return out


def _same(a, b):
    return repr(a) == repr(b)  # NaN == NaN by repr; floats compare exactly


def run(repeat: int = 3):
    """Returns (rows, metrics, failures).  Metrics are the active backend's
    per-call times; failures are (case, detail, known defect or None)."""
    impls = backends()
    rows, metrics, failures = [], {}, []
    for case, kernel, args, number, ok, known in CASES:
        label = "%s %s" % (kernel, case)
        results = {name: getattr(mod, kernel)(*args) for name, mod in impls.items()}
        values = list(results.values())
        if not all(_same(values[0], v) for v in values[1:]):
            failures.append((label, "backends disagree: %r" % (results,), None))
        elif ok is not None and not ok(values[0]):
            failures.append((label, "result %r" % (values[0],), known))
        times = {}
        for name, mod in impls.items():
            fn = getattr(mod, kernel)
            best = min(timeit.repeat(lambda: fn(*args), number=number, repeat=repeat))
            times[name] = best / number
        metrics["micro.%s.%s_us" % (kernel, case)] = times[_kernels.BACKEND] * 1e6
        rows.append((kernel, case, times))
    return rows, metrics, failures


def render(rows) -> str:
    names = sorted({n for _, _, t in rows for n in t})
    lines = ["%-15s %-16s" % ("kernel", "case") + "".join("%14s" % n for n in names)]
    for kernel, case, times in rows:
        cells = "".join("%11.2f us" % (times[n] * 1e6) if n in times else "%14s" % "absent" for n in names)
        lines.append("%-15s %-16s%s" % (kernel, case, cells))
    return "\n".join(lines)
