import multiprocessing

from opweb.runner import pmap, replica_ranges


def test_pool_is_sized_by_the_work(monkeypatch):
    # a pool of more processes than jobs forks workers that get no work;
    # the fake pool starts none and maps in order
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool",
                        SerialPool)
    assert pmap(abs, [-1, 2], 64) == [1, 2]
    assert pmap(abs, range(-5, 5), 3) == [abs(x) for x in range(-5, 5)]
    assert sizes == [2, 3]


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
