"""Spans for the traced run, recorded by wrappers at the library's module
boundaries, and the per-module metrics computed from them.

``Tracer.installed()`` replaces module attributes (and the methods of the
exact-arithmetic classes) with wrappers and puts every original back on
exit; nothing in the library changes.  Each span is
``(id, parent id, name, start, end, operation id, note)``; the note keeps the
one argument or result a metric needs.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
from time import perf_counter

TREE_WALKS = ("_kernels.count_multi", "_kernels.count_upto", "_kernels.slopes_upto")


def _arg(i, name):
    return lambda a, k, r: a[i] if len(a) > i else k[name]


def _result(a, k, r):
    return r


# (module under multicurve, attribute, note) for plain call boundaries
CALLS = (
    ("_kernels", "count_ball", _result),
    ("_kernels", "trace_of_slope", None),
    ("_kernels", "slopes_upto", lambda a, k, r: len(r)),
    ("_kernels", "count_upto", _result),
    ("_kernels", "count_multi", lambda a, k, r: (a[3], r)),
    ("torus", "fn_to_triple", None),
    ("torus", "enumerate_short_slopes", None),
    ("torus", "count_s", None),
    ("torus", "count_b", None),
    ("torus", "estimate_B", None),
    ("torus", "b_hat", _arg(1, "Lmax")),
    ("torus", "systole_slope", None),
    ("torus", "sample_bers_box", None),
    ("torus", "mc_moduli", _arg(1, "samples")),
    ("dtlattice", "count_ball", None),
    ("thurston", "lattice_ball_estimate", None),
    ("thurston", "comb_ball_measure", None),
    ("wpcells", "mc_integrate", None),
    ("wpcells", "f_power_mc", None),
    ("frequencies", "frequency", None),
    ("frequencies", "count_polynomial", None),
    ("frequencies", "b_from_frequencies", None),
    ("volumes", "volume_table_load", None),
)

NOTES = {(m, a): note for m, a, note in CALLS}

# runpar.ordered_map as each caller imported it, and the name of its items
ORDERED_MAPS = (("torus", "torus.mc_moduli.sample"), ("wpcells", "wpcells.mc_integrate.sample"))

EXACT_CLASSES = ("PiRat", "PiPoly")


class Tracer:
    def __init__(self):
        # list.append and next() on a count are single C calls, so worker
        # threads of the ordered_map pool can record without a lock
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.op = None  # id of the operation being run; set by the harness

    # -- recording --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None, parent=None):
        """fn with a span around each call.  parent fixes the parent span for
        calls made on a thread whose own stack is empty (pool workers)."""
        ids, spans, stack_of = self._ids, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*a, **k):
            stack = stack_of()
            up = stack[-1] if stack else parent
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*a, **k)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, up, name, t0, t1, self.op,
                              note(a, k, result) if note is not None and result is not None else None))

        return wrapper

    def _wrap_generator(self, name, fn):
        """A span from the first next() to exhaustion; the caller's stack is
        pushed only while the generator itself runs."""
        ids, spans, stack_of = self._ids, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*a, **k):
            stack = stack_of()
            up = stack[-1] if stack else None
            sid = next(ids)
            gen = fn(*a, **k)
            count = 0
            t0 = perf_counter()
            try:
                while True:
                    stack.append(sid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                    count += 1
                    yield item
            finally:
                spans.append((sid, up, name, t0, perf_counter(), self.op, count))

        return wrapper

    def _wrap_ordered_map(self, fn, item_name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(fn_item, items, threads=1):
            stack = tracer._stack()
            up = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(tracer.wrap(item_name, fn_item, parent=sid), items, threads=threads)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, up, "runpar.ordered_map", t0, t1, tracer.op, threads))

        return wrapper

    def _wrap_outermost(self, fn):
        """A span named "exactpoly" for a PiRat/PiPoly call made from outside
        the class; calls the classes make on each other are not split out."""
        local, inner = self._local, self.wrap("exactpoly", fn)

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if getattr(local, "exact", False):
                return fn(*a, **k)
            local.exact = True
            try:
                return inner(*a, **k)
            finally:
                local.exact = False

        return wrapper

    # -- patching ---------------------------------------------------------

    @staticmethod
    def boundaries():
        """(owner, attribute) of every boundary the tracer wraps."""
        out = [(importlib.import_module("multicurve." + m), a) for m, a, _ in CALLS]
        out += [(importlib.import_module("multicurve." + m), "ordered_map") for m, _ in ORDERED_MAPS]
        out.append((importlib.import_module("multicurve.dtlattice"), "enumerate_ball"))
        exactpoly = importlib.import_module("multicurve.exactpoly")
        for cls_name in EXACT_CLASSES:
            cls = getattr(exactpoly, cls_name)
            for attr, raw in vars(cls).items():
                if callable(raw) or isinstance(raw, classmethod):
                    out.append((cls, attr))
        return out

    def _replacement(self, owner, attr, raw):
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                return classmethod(self._wrap_outermost(raw.__func__))
            return self._wrap_outermost(raw)
        mod = owner.__name__.rsplit(".", 1)[-1]
        if attr == "ordered_map":
            return self._wrap_ordered_map(raw, dict(ORDERED_MAPS)[mod])
        if attr == "enumerate_ball":
            return self._wrap_generator("dtlattice.enumerate_ball", raw)
        return self.wrap("%s.%s" % (mod, attr), raw, NOTES[(mod, attr)])

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr in self.boundaries():
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                setattr(owner, attr, self._replacement(owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans):
    """span id -> duration minus the part of it covered by child spans."""
    children = {}
    for sid, up, _, t0, t1, _, _ in spans:
        if up is not None:
            children.setdefault(up, []).append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, passes: int) -> dict:
    """Per-module metrics, per pass of the workload, from a traced run's spans.

    A metric whose layer the workload never reaches reads 0, as does a ratio
    whose base it never produces (per_sample and kept_ratio count torus
    Monte Carlo samples only).  With the pool at more than one thread, span
    times on its workers include waits for the interpreter lock.
    """
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls, self_s, notes = {}, {}, {}
    for s in spans:
        name = s[2]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[s[0]]
        if s[6] is not None:
            notes.setdefault(name, []).append(s[6])

    def per_pass(v):
        return v / passes

    def ratio(a, b):
        return a / b if b else 0.0

    walks = sum(calls.get(n, 0) for n in TREE_WALKS)
    counted = sum(notes.get("_kernels.count_upto", ())) + sum(notes.get("_kernels.slopes_upto", ()))
    counted += sum(r for _, r in notes.get("_kernels.count_multi", ()))
    samples = sum(notes.get("torus.mc_moduli", ()))

    # count_multi calls under b_hat, and those at the ladder top (L == Lmax)
    under = top = 0
    for s in spans:
        if s[2] != "_kernels.count_multi":
            continue
        up = by_id.get(s[1])
        while up is not None and up[2] != "torus.b_hat":
            up = by_id.get(up[1])
        if up is not None:
            under += 1
            top += s[6] is not None and up[6] is not None and s[6][0] == up[6]

    busy = sum(s[4] - s[3] for s in spans if s[2].endswith(".sample"))
    capacity = sum((s[4] - s[3]) * s[6] for s in spans if s[2] == "runpar.ordered_map")
    ball_points = sum(notes.get("_kernels.count_ball", ()))
    enumerated = sum(notes.get("dtlattice.enumerate_ball", ()))

    return {
        "kernels.tree_walk.calls": per_pass(walks),
        "kernels.tree_walk.self_s": per_pass(sum(self_s.get(n, 0.0) for n in TREE_WALKS)),
        "kernels.tree_walk.per_sample": ratio(walks, samples),
        "kernels.slopes_counted": per_pass(counted),
        "kernels.count_ball.self_s": per_pass(self_s.get("_kernels.count_ball", 0.0)),
        "kernels.count_ball.points_per_s": ratio(ball_points, self_s.get("_kernels.count_ball", 0.0)),
        "torus.fn_to_triple.per_sample": ratio(calls.get("torus.fn_to_triple", 0), samples),
        "torus.fn_to_triple.self_s": per_pass(self_s.get("torus.fn_to_triple", 0.0)),
        "torus.b_hat.rung_use_ratio": ratio(top, under),
        "torus.mc.kept_ratio": ratio(calls.get("torus.mc.functional", 0), samples),
        "torus.mc_moduli.self_s": per_pass(self_s.get("torus.mc_moduli", 0.0)
                                           + self_s.get("torus.mc_moduli.sample", 0.0)),
        "torus.sample_bers_box.self_s": per_pass(self_s.get("torus.sample_bers_box", 0.0)),
        "runpar.ordered_map.self_s": per_pass(self_s.get("runpar.ordered_map", 0.0)),
        "runpar.busy_ratio": ratio(busy, capacity),
        "dtlattice.enumerate_ball.self_s": per_pass(self_s.get("dtlattice.enumerate_ball", 0.0)),
        "dtlattice.enumerate_ball.points_per_s": ratio(enumerated, self_s.get("dtlattice.enumerate_ball", 0.0)),
        "wpcells.mc_integrate.self_s": per_pass(self_s.get("wpcells.mc_integrate", 0.0)
                                                + self_s.get("wpcells.mc_integrate.sample", 0.0)),
        "wpcells.f_power_mc.self_s": per_pass(self_s.get("wpcells.f_power_mc", 0.0)),
        "frequencies.frequency.calls": per_pass(calls.get("frequencies.frequency", 0)),
        "frequencies.b_from_frequencies.self_s": per_pass(self_s.get("frequencies.b_from_frequencies", 0.0)),
        "exactpoly.self_s": per_pass(self_s.get("exactpoly", 0.0)),
    }
