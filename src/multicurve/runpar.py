"""Deterministic parallel evaluation.

Work is split into fixed chunks and results are written back by index, so
the output is identical for any thread count; only wall time changes.
The pool is imported only where threads > 1 asks for it: a serial map,
which is what every command runs, need not load concurrent.futures at
start-up, and it takes the items as they come, so a stream of them is
never held whole.
"""

from __future__ import annotations

CHUNK = 256


def ordered_map(fn, items, threads: int = 1) -> list:
    if threads > 1:
        items = list(items)
    if threads <= 1 or len(items) <= CHUNK:
        return list(map(fn, items))
    from concurrent.futures import ThreadPoolExecutor

    out = [None] * len(items)

    def run(span):
        lo, hi = span
        for i in range(lo, hi):
            out[i] = fn(items[i])

    spans = [(lo, min(lo + CHUNK, len(items))) for lo in range(0, len(items), CHUNK)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run, spans))
    return out
