"""Replica fan-out.

Work is partitioned statically and results keep the submission order, so
worker count changes wall time but never content.  A batch that walks many
replicas in one call maps over `replica_ranges` instead of over replicas.
"""

from __future__ import annotations


def pmap(fn, items, workers: int = 1):
    """Ordered map over items; fn must be a module-level callable."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing  # only a pool needs it: a serial run never loads it
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(items) // (workers * 4))
    with ctx.Pool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items, chunksize=chunk)


def replica_ranges(count: int, workers: int) -> list:
    """Contiguous ranges ``(offset, size)`` that cover ``range(count)`` in
    order: one for a single worker, and about four per worker otherwise, so
    that the pool balances them.  Joined in order, their results do not
    depend on the worker count."""
    pieces = 1 if workers <= 1 else max(1, min(count, 4 * workers))
    ends = [count * i // pieces for i in range(pieces + 1)]
    return [(a, b - a) for a, b in zip(ends, ends[1:])]
