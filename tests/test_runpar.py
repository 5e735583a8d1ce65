"""Deterministic parallel map: the pool gives the serial result."""

from multicurve.runpar import CHUNK, ordered_map


def test_pool_gives_the_serial_result_in_order():
    # more items than one chunk, so threads=2 takes the pool branch
    items = range(600)
    assert len(items) > 2 * CHUNK
    serial = ordered_map(lambda i: i * i - 7 * i, items)
    assert serial == [i * i - 7 * i for i in items]
    assert ordered_map(lambda i: i * i - 7 * i, items, threads=2) == serial
