"""Replica fan-out.

Work is partitioned statically and results keep the submission order, so
worker count changes wall time but never content.
"""

from __future__ import annotations

import multiprocessing


def pmap(fn, items, workers: int = 1):
    """Ordered map over items; fn must be a module-level callable."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(items) // (workers * 4))
    with ctx.Pool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items, chunksize=chunk)
