"""Python references of the native walks, made from `ExplorationCluster`.

Each reference takes the arguments of the `opweb._native` body it stands
for and gives the same answer, or raises the same guard error:
`bounds_reference` for `_native.bounds` (`explore.explore_to_level`),
`lockstep_reference` for `_native.lockstep` (`explore.walk_lockstep`),
`pairs_reference` for `_native.pairs` (`couple.pair_merges`) and
`estimate_reference` for `_native.breaks` (the estimate worker).  Tests
compare each native body with its reference, and run the command line on
the references by monkeypatching them over the native bodies.
`judge_reference` stands for `oracle._judge`, a rung of the check's box
ladder (``judge_box``): it reads the same certified DP through
`oracle._certified_dp` and compares in Python.
"""

import numpy as np

from opweb.errors import BoxTooNarrowError, InvalidArgumentError
from opweb.explore import Boundaries, ExplorationCluster
from opweb.lattice import LatticeSite, replica_config
from opweb.oracle import _certified_dp, _raised


def bounds_reference(z, n, horizon, cfg, scan_guard) -> Boundaries:
    """`explore_to_level` on the Python walk."""
    cluster = ExplorationCluster(z, cfg, scan_guard=scan_guard)
    cluster.advance_to(n)
    left = cluster.left_values
    cluster.advance_to(horizon)
    return Boundaries(z, cluster.right_values, left, cluster.left_values,
                      cluster.scan_offset, cluster.n_examined)


def lockstep_reference(xs, t0, level, cfg, scan_guard):
    """`walk_lockstep` on Python walks."""
    walks = [ExplorationCluster(LatticeSite(x, t0), cfg,
                                scan_guard=scan_guard) for x in xs]
    pair = len(xs) == 2
    values, n = list(xs), t0
    while n < level and not (pair and values[1] <= values[0]):
        n += 1
        values = [w.advance_level() for w in walks]
    if pair and values[1] <= values[0]:
        walks[0].advance_to(level)
        return n, None
    return None, tuple(values)


def pairs_reference(xl, xr, t0, level, seed, p, first, count, scan_guard):
    """`_native.pairs` as a loop of `lockstep_reference` over the replicas'
    configurations, which raises at the first replica whose walk trips."""
    merges = []
    for k in range(count):
        cfg = replica_config(seed, p, first + k)
        merge, _ = lockstep_reference((xl, xr), t0, level, cfg, scan_guard)
        merges.append(-1 if merge is None else merge - t0)
    return np.array(merges, dtype=np.int64)


def break_point_arrays(r, left, t0: int, n_end: int, margin: int):
    """Break times and boundary values from an explored cluster's
    boundaries.

    ``r`` and ``left`` are the right and left boundaries of a cluster
    started at time ``t0`` (its `right_values` and `left_values`), advanced
    to at least ``n_end + margin``; detection runs on ``[t0, n_end]`` and
    break points inside the trailing ``margin`` levels are discarded (their
    survival evidence is one-sided).  Returns ``(T, RT)``: absolute break
    times and ``r`` evaluated there.
    """
    horizon = n_end + margin
    if margin <= 0:
        raise InvalidArgumentError("margin must be positive")
    if t0 + len(r) - 1 < horizon:
        raise InvalidArgumentError("cluster not explored to the survival horizon")
    keep = n_end - margin - t0
    if keep < 0:
        raise InvalidArgumentError("margin leaves no detection window")
    r = r[:keep + 1]
    idx = np.flatnonzero(r == left[:keep + 1])
    return t0 + idx, r[idx]


def increment_sums(X, tau) -> tuple:
    """The six sums that `RegenAccumulator.add` takes, of integer
    increments ``(X, tau)``: the count, ΣX, Στ, ΣX², ΣXτ and Στ²."""
    X = np.asarray(X, dtype=np.int64)
    tau = np.asarray(tau, dtype=np.int64)
    return (len(X), int(X.sum()), int(tau.sum()), int(X @ X), int(X @ tau),
            int(tau @ tau))


def estimate_reference(cfg, n, margin, scan_guard):
    """The estimate worker on the Python walk: one replica's increment
    sums and r(n)."""
    cluster = ExplorationCluster(LatticeSite(0, 0), cfg,
                                 scan_guard=scan_guard)
    cluster.advance_to(n + margin)
    r = cluster.right_values
    T, RT = break_point_arrays(r, cluster.left_values, 0, n, margin)
    return increment_sums(np.diff(RT), np.diff(T)), int(r[n])


def judge_reference(box, right, left, n) -> str:
    """`oracle._judge` in Python: one box's outcome for a walk from (0, 0)
    to level ``n``."""
    try:
        dp, path = _certified_dp(box, 0, n)
    except BoxTooNarrowError:
        return "box_too_narrow"
    if isinstance(dp, BoxTooNarrowError):
        return "box_too_narrow"
    if dp.dead_from is not None:
        # a box that dies judges only the paths inside it
        outside = any(x < wall for x, wall in zip(left.tolist(),
                                                  box.lefts.tolist()))
        return "box_too_narrow" if outside else "dp_dead"
    if not np.array_equal(dp.values, right):
        return "right_boundary_mismatch"
    if isinstance(path, BoxTooNarrowError):
        return "box_too_narrow"
    if not np.array_equal(_raised(path), left):
        return "left_boundary_mismatch"
    return "ok"
