import time
from concurrent import futures

import pytest

from opweb.runner import pmap, replica_ranges


def test_pool_is_sized_by_the_work(monkeypatch):
    # a pool of more threads than items starts threads that get no work
    sizes = []

    class SizedPool(futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", SizedPool)
    assert pmap(abs, [-1, 2], 64) == [1, 2]
    assert pmap(abs, range(-5, 5), 3) == [abs(x) for x in range(-5, 5)]
    assert sizes == [2, 3]


def _fail_late_then_early(item):
    if item == 0:
        time.sleep(0.2)
        raise KeyError(item)
    raise ValueError(item)


def test_the_first_failing_item_in_order_raises():
    # item 1 fails first in time; the error raised must not depend on the
    # timing, so it is item 0's
    with pytest.raises(KeyError):
        pmap(_fail_late_then_early, [0, 1], 2)


def test_replica_ranges_cover_the_replicas_in_order():
    assert replica_ranges(40, 1) == [(0, 40)]
    assert replica_ranges(0, 2) == [(0, 0)]
    for count in (1, 7, 13, 40):
        for workers in (2, 3):
            ranges = replica_ranges(count, workers)
            assert len(ranges) == min(count, 4 * workers)
            assert all(size >= 1 for _, size in ranges)
            ends = [offset + size for offset, size in ranges]
            assert [offset for offset, _ in ranges] == [0, *ends[:-1]]
            assert ends[-1] == count
