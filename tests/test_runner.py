import multiprocessing

from opweb.runner import pmap


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
