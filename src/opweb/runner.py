"""Replica fan-out.

Work is partitioned statically and results keep the submission order, so
worker count changes wall time but never content.  A batch that walks many
replicas in one call maps over `replica_ranges` instead of over replicas.

Workers are threads of this process: each walk is one ctypes call into
``_walk.c``, which releases the GIL during the call and keeps no mutable
global state.  One worker, or one item, maps in the calling thread and
starts no pool.  Errors keep the order too: the first failing item in
order raises, whatever the timing.
"""

from __future__ import annotations


def pmap(fn, items, workers: int = 1):
    """``[fn(item) for item in items]``, on up to ``workers`` threads."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # loads logging: only a pool needs it, so a serial run never imports it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def replica_ranges(count: int, workers: int) -> list:
    """Contiguous ranges ``(offset, size)`` that cover ``range(count)`` in
    order: one for a single worker, and about four per worker otherwise, so
    that the pool balances them.  Joined in order, their results do not
    depend on the worker count."""
    pieces = 1 if workers <= 1 else max(1, min(count, 4 * workers))
    ends = [count * i // pieces for i in range(pieces + 1)]
    return [(a, b - a) for a, b in zip(ends, ends[1:])]
