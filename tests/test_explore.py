import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opweb import _native
from opweb.errors import (InvalidArgumentError, NativeLibraryError,
                          ScanLimitExceededError)
from opweb.explore import (ExplorationCluster, boundary_ordering_check,
                           explore_to_level, gamma_approx, trajectory_csv)
from opweb.lattice import (Config, LatticeSite, X_BIAS, edge_threshold,
                           make_key_sampler, replica_bases, replica_config)

from _ledger import _first_leq
from _references import (chain_reference, chain_row_reference,
                         lockstep_reference, squeeze_reference)

ORIGIN = LatticeSite(0, 0)

seeds = st.integers(0, 2**32)
ps = st.sampled_from([0.65, 0.7, 0.8, 0.9])


def test_all_open_lattice():
    cluster = ExplorationCluster(ORIGIN, Config(3, 1.0, 1))
    for _ in range(3):
        cluster.advance_level()
    assert cluster.right_values.tolist() == [0, 1, 2, 3]
    assert cluster.left_values.tolist() == [0, 1, 2, 3]
    assert cluster.n_examined == 3  # one open up-right edge per level


def test_all_closed_trips_guard():
    cluster = ExplorationCluster(ORIGIN, Config(3, 0.0, 1), scan_guard=50)
    with pytest.raises(ScanLimitExceededError) as err:
        cluster.advance_level()
    assert err.value.scan_offset == 50


def test_zero_step_cluster():
    b = explore_to_level(LatticeSite(6, 2), 2, Config(1, 0.8, 1))
    assert b.right.tolist() == b.left.tolist() == b.gamma.tolist() == [6]
    assert b.level == 2


def test_horizon_below_level_rejected():
    with pytest.raises(InvalidArgumentError):
        explore_to_level(ORIGIN, 4, Config(1, 0.8, 1), horizon=3)


def test_level_precedes_start_rejected():
    with pytest.raises(InvalidArgumentError):
        explore_to_level(LatticeSite(0, 4), 2, Config(1, 0.8, 1))


@given(seeds, ps, st.integers(5, 40))
@settings(max_examples=50, deadline=None)
def test_boundary_invariants(seed, p, n):
    b = explore_to_level(ORIGIN, n, Config(seed, p, 1), scan_guard=2000)
    r, left = b.right, b.left
    # left boundary is nearest-neighbor, right boundary never gains 2
    assert set(np.diff(left)) <= {-1, 1}
    assert np.diff(r).max() <= 1
    assert left[-1] == r[-1]
    assert np.all(np.asarray(left) <= np.asarray(r))


@given(seeds, ps, st.integers(2, 25), st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_prefix_consistency_and_left_monotonicity(seed, p, n, extra):
    cfg = Config(seed, p, 1)
    short = explore_to_level(ORIGIN, n, cfg, scan_guard=2000)
    tall = explore_to_level(ORIGIN, n + extra, cfg, scan_guard=2000)
    assert tall.right[:n + 1].tolist() == short.right.tolist()
    assert np.all(np.asarray(tall.left[:n + 1]) <= np.asarray(short.left))
    # one walk to (n, n + extra) gives the left boundary of the one and the
    # boundaries at the horizon of the other
    both = explore_to_level(ORIGIN, n, cfg, horizon=n + extra,
                            scan_guard=2000)
    assert _bounds_state(both) == (tall.right.tolist(), short.left.tolist(),
                                   tall.gamma.tolist(), tall.scan_offset,
                                   tall.n_examined)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_left_equals_right_at_every_level(seed):
    cfg = Config(seed, 0.8, 1)
    cluster = ExplorationCluster(ORIGIN, cfg, scan_guard=2000)
    for _ in range(30):
        cluster.advance_level()
        assert cluster.left_values[-1] == cluster.right_values[-1]


def test_edge_economy_every_edge_sampled_once():
    calls = []
    cfg = Config(12, 0.8, 1)
    from opweb.lattice import make_key_sampler
    inner = make_key_sampler(cfg)

    def counting(key):
        calls.append(key)
        return inner(key)

    cluster = ExplorationCluster(ORIGIN, source=counting)
    cluster.advance_to(200)
    assert len(calls) == len(set(calls))
    assert len(calls) == cluster.n_examined
    reference = explore_to_level(ORIGIN, 200, cfg)
    assert np.array_equal(reference.right, cluster.right_values)


def test_gamma_all_open():
    g = gamma_approx(LatticeSite(2, 0), 5, Config(0, 1.0, 1))
    assert list(g.values) == [2, 3, 4, 5, 6, 7]


@given(seeds, st.integers(10, 30), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_gamma_monotone_in_horizon(seed, h, extra):
    cfg = Config(seed, 0.8, 1)
    g_short = gamma_approx(ORIGIN, h, cfg, scan_guard=2000)
    g_long = gamma_approx(ORIGIN, h + extra, cfg, scan_guard=2000)
    assert np.all(np.asarray(g_short.values)
                  >= np.asarray(g_long.values[:h + 1]))


def test_gamma_stabilizes_well_before_horizon():
    # measured: horizons 200 and 400 agree on [0, 100] for all 400 seeds
    agree = 0
    for rep in range(400):
        cfg = Config(55, 0.8, (rep + 1) * 1024)
        g1 = gamma_approx(ORIGIN, 200, cfg)
        g2 = gamma_approx(ORIGIN, 400, cfg)
        agree += np.array_equal(g1.values[:101], g2.values[:101])
    assert agree == 400


def test_ordering_check_and_negative_control():
    cfg = Config(21, 0.8, 1)
    g = gamma_approx(ORIGIN, 200, cfg)
    b = explore_to_level(ORIGIN, 50, cfg)
    assert boundary_ordering_check(b, g)
    b.right[17] -= 1  # corrupt one right-boundary value
    assert not boundary_ordering_check(b, g)


def test_ordering_check_sweep():
    for rep in range(200):
        cfg = Config(90, 0.8, (rep + 1) * 1024)
        cluster = explore_to_level(ORIGIN, 60, cfg)
        g = gamma_approx(ORIGIN, 240, cfg)
        assert boundary_ordering_check(cluster, g)


def test_ordering_check_domain_mismatch():
    cfg = Config(21, 0.8, 1)
    cluster = explore_to_level(ORIGIN, 50, cfg)
    with pytest.raises(InvalidArgumentError):
        boundary_ordering_check(cluster, gamma_approx(ORIGIN, 20, cfg))
    with pytest.raises(InvalidArgumentError):
        boundary_ordering_check(
            cluster, gamma_approx(LatticeSite(2, 0), 100, cfg))


def test_trajectory_csv_dump():
    b = explore_to_level(ORIGIN, 3, Config(3, 1.0, 1), horizon=6)
    assert trajectory_csv(b.right, b.left, b.gamma) == (
        "j,r_j,l_j,gamma_j\n0,0,0,0\n1,1,1,1\n2,2,2,2\n3,3,3,3\n")


def test_scan_offset_counts_exhausted_starts():
    # find a seed whose origin cluster dies quickly, then check the scan moved
    for stream in range(1, 200):
        b = explore_to_level(ORIGIN, 40, Config(8, 0.7, stream))
        if b.scan_offset > 0:
            assert b.left[0] == -2 * b.scan_offset
            return
    pytest.fail("no dying origin cluster found in 200 streams")


# -- the native walk against the Python walk ---------------------------------
# A Config-driven walk runs the native walk; a cluster, and with it the
# stepped walk, is always the Python walk, the reference.

def _bounds_state(b):
    return (b.right.tolist(), b.left.tolist(), b.gamma.tolist(),
            b.scan_offset, b.n_examined)


def _walk_state(cluster, left=None):
    """A Python walk's state as `_bounds_state` gives it, with ``left`` the
    left boundary frozen at an earlier level (by default, the current one)."""
    now = cluster.left_values.tolist()
    return (cluster.right_values.tolist(), now if left is None else left,
            now, cluster.scan_offset, cluster.n_examined)


def _step(cluster, step):
    """One advance: ``None`` is advance_level, an int k is advance_to(level
    + k).  Returns the guard error's message and scan offset, or None."""
    try:
        if step is None:
            cluster.advance_level()
        else:
            cluster.advance_to(cluster.level + step)
    except ScanLimitExceededError as e:
        return str(e), e.scan_offset
    return None


def _bounds_outcome(start, n, horizon, cfg, guard):
    """`explore_to_level`'s state, or its guard error's message and scan
    offset."""
    try:
        return _bounds_state(explore_to_level(start, n, cfg, horizon=horizon,
                                              scan_guard=guard))
    except ScanLimitExceededError as e:
        return str(e), e.scan_offset


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=seeds,
       p=st.sampled_from([0.0, 0.5, 0.6447, 0.7, 0.8, 0.9, 1.0]),
       x=st.integers(-40, 40), t=st.integers(-40, 40),
       guard=st.integers(1, 300),
       steps=st.lists(st.one_of(st.none(), st.integers(-2, 40)),
                      min_size=1, max_size=8))
# long walks, past the strategy's bounds
@example(seed=1, p=0.65, x=0, t=-1500, guard=10_000, steps=[3000])
@example(seed=2, p=0.7, x=0, t=0, guard=10_000, steps=[3000])
@example(seed=3, p=0.9, x=7, t=-40, guard=10_000, steps=[3000])
@example(seed=4, p=1.0, x=-5, t=-3000, guard=10_000, steps=[3000])
# near p_c: 4000 levels over 195 restarts (214 361 edges), and 851 levels
# over 2000 restarts until the guard trips (275 064 edges)
@example(seed=5, p=0.64, x=0, t=0, guard=10_000, steps=[2000, 2000])
@example(seed=3, p=0.62, x=0, t=0, guard=2000, steps=[500, 2000])
def test_native_walk_matches_python_walk(seed, p, x, t, guard, steps):
    # the one-call walk to each level the steps reach, and from each such
    # level n to the next as (n, horizon), against the stepped Python walk
    cfg = Config(seed, p, 1)
    start = LatticeSite(x + ((x + t) & 1), t)
    python = ExplorationCluster(start, cfg, scan_guard=guard)
    for step in steps:
        n, left = python.level, python.left_values.tolist()
        horizon = n + 1 if step is None else max(n, n + step)
        tripped = _step(python, step)
        assert _bounds_outcome(start, horizon, horizon, cfg, guard) == (
            tripped or _walk_state(python))
        assert _bounds_outcome(start, n, horizon, cfg, guard) == (
            tripped or _walk_state(python, left))
        if tripped:
            # a tripped Python walk raises the same error again
            assert _step(python, step) == tripped
            break


class _LevelRuleDead(set):
    """A dead-site set that checks each lookup against the rule of
    ``_walk.c``: a site queried from the stack is dead exactly when its
    column is at or right of the least dead column at its level."""

    def __init__(self):
        super().__init__()
        self.least = {}  # level -> least dead column
        self.lookups = 0

    def add(self, key):
        t, x = key >> 32, (key & 0xFFFFFFFF) - X_BIAS
        self.least[t] = min(self.least.get(t, x), x)
        super().add(key)

    def __contains__(self, key):
        t, x = key >> 32, (key & 0xFFFFFFFF) - X_BIAS
        dead = super().__contains__(key)
        assert dead == (x >= self.least.get(t, math.inf)), (t, x)
        self.lookups += 1
        return dead


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=seeds,
       p=st.sampled_from([0.5, 0.6447, 0.7, 0.8, 0.9, 1.0]),
       x=st.integers(-40, 40), t=st.integers(-40, 40),
       guard=st.integers(1, 1000), levels=st.integers(1, 2000))
# near p_c: 76 236 lookups until the guard trips below level 852, and
# 62 608 lookups over 5000 levels
@example(seed=3, p=0.62, x=0, t=0, guard=1000, levels=2000)
@example(seed=1, p=0.6447, x=0, t=0, guard=2000, levels=5000)
def test_dead_lookups_follow_the_per_level_rule(seed, p, x, t, guard, levels):
    sample = make_key_sampler(Config(seed, p, 1))
    opened = 0

    def counting(key):
        nonlocal opened
        is_open = sample(key)
        opened += is_open
        return is_open

    cluster = ExplorationCluster(LatticeSite(x + ((x + t) & 1), t),
                                 source=counting, scan_guard=guard)
    cluster._dead = dead = _LevelRuleDead()
    _step(cluster, levels)
    # one lookup per open edge: the walk consulted the checking set
    assert dead.lookups == opened


def _chain_outcome(body, *args):
    """The stops a chain body returns, as lists, or its guard error's
    message and scan offset."""
    try:
        return body(*args)
    except ScanLimitExceededError as e:
        return str(e), e.scan_offset


def _family(t0, x, gaps):
    """Equal-time starts on the even lattice from about x, the given gaps
    apart in steps of 2."""
    xs = [x + ((x + t0) & 1)]
    for gap in gaps:
        xs.append(xs[-1] + 2 * gap)
    return xs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=seeds, p=st.sampled_from([0.65, 0.7, 0.8, 0.9, 1.0]),
       t0=st.integers(-3, 3), x=st.integers(-20, 20),
       gaps=st.lists(st.integers(1, 20), max_size=15),
       level_above=st.integers(0, 300),
       cap=st.one_of(st.none(), st.integers(1, 4)))
def test_lockstep_matches_whole_python_walks(seed, p, t0, x, gaps,
                                             level_above, cap):
    # walk i stops at the first level where r_i <= r_{i-1}, read off whole
    # boundaries, or never; once eta reaches the cap the chain ends; and
    # eta is the squeeze's count of distinct values at the level
    cfg = Config(seed, p, 1)
    xs, level = _family(t0, x, gaps), t0 + level_above
    walks = [ExplorationCluster(LatticeSite(z, t0), cfg) for z in xs]
    for walk in walks:
        walk.advance_to(level)
    r = [walk.right_values for walk in walks]
    stops = []
    for left, right in zip(r, r[1:]):
        merge = _first_leq(right, left, t0, t0, t0)
        stops.append(-1 if merge is None else merge - t0)
    eta = 1
    for i, stop in enumerate(stops):
        if eta == cap:
            stops[i:] = [-2] * (len(stops) - i)
            break
        eta += stop < 0
    chain = _native.chain(xs, t0, level, p, [cfg._base], cap, 10_000)
    assert chain == [stops] and all(type(v) is int for v in chain[0])
    assert chain_row_reference(xs, t0, level, cfg, cap, 10_000)[0] == stops
    assert eta == squeeze_reference(xs, t0, level, cfg, cap)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=seeds, p=st.sampled_from([0.5, 0.6, 0.6447, 0.66, 0.7]),
       t0=st.integers(-3, 3), gaps=st.lists(st.integers(1, 20), min_size=1,
                                            max_size=5),
       level_above=st.integers(0, 300), guard=st.integers(1, 60),
       cap=st.one_of(st.none(), st.integers(1, 3)))
# the start at 2 of (0, 2, 4) trips first, below level 3
@example(seed=15, p=0.5, t0=0, gaps=[1, 1], level_above=20, guard=5,
         cap=None)
def test_native_lockstep_trips_as_the_python_lockstep(seed, p, t0, gaps,
                                                      level_above, guard,
                                                      cap):
    # with a pair whose right start is left of its left one, which stops
    # at the start level
    base = Config(seed, p, 1)._base
    xs, level = _family(t0, 0, gaps), t0 + level_above
    for starts in ([xs[0]], [xs[-1]], xs[:2], xs[1::-1], xs):
        args = (starts, t0, level, p, [base], cap, guard)
        assert _chain_outcome(_native.chain, *args) == _chain_outcome(
            chain_reference, *args)


@pytest.mark.parametrize("p", [0.65, 0.8, 1.0])
@pytest.mark.parametrize("gap", [2, 14, 28])
@pytest.mark.parametrize("t0", [0, 3])
def test_batched_pairs_match_the_per_replica_lockstep(t0, gap, p):
    # p = 1 runs on the all-open flag; merges count levels from t0
    seed, first, count, level = 5, 3, 12, t0 + 300
    xs = (t0 & 1, (t0 & 1) + gap)
    expected = []
    for k in range(count):
        cfg = replica_config(seed, p, first + k)
        [[merge]] = _native.chain(xs, t0, level, p, [cfg._base], None,
                                  10_000)
        assert lockstep_reference(xs, t0, level, cfg, 10_000)[0] == [merge]
        expected.append([merge])
    args = (xs, t0, level, p, replica_bases(seed, first, count), None, 10_000)
    merges = _native.chain(*args)
    assert all(type(merge) is int for row in merges for merge in row)
    assert merges == expected
    assert chain_reference(*args) == expected


def test_a_batch_trips_as_its_first_tripping_replica():
    # replicas 5 and 6 merge by level 8; replica 7 trips below level 7, and
    # replica 8, walked on its own, below level 5
    seed, p, first, count, level, guard = 0, 0.3, 5, 20, 8, 40
    for k in range(first, first + count):
        base = replica_config(seed, p, k)._base
        trip = _chain_outcome(_native.chain, (0, 14), 0, level, p, [base],
                              None, guard)
        if isinstance(trip, tuple):
            break
    assert (k, *trip) == (7, "40 start sites exhausted below level 7", 40)
    for body in (_native.chain, chain_reference):
        assert _chain_outcome(body, (0, 14), 0, level, p,
                              replica_bases(seed, first, count), None,
                              guard) == trip


def test_left_walk_goes_on_past_the_merge_to_its_guard():
    # subcritical: the pair merges at level 5, and the left walk, which
    # goes on alone, trips its guard below level 18
    base = replica_config(0, 0.3, 0)._base
    for body in (chain_reference, _native.chain):
        assert body((0, 4), 0, 17, 0.3, [base], None, 10_000) == [[5]]
        assert _chain_outcome(body, (0, 4), 0, 18, 0.3, [base], None,
                              10_000) == (
            "10000 start sites exhausted below level 18", 10_000)


def test_a_pair_far_below_its_level_trips_its_guard():
    # subcritical, to level 10**12: the left walk trips below level 5, and
    # its block grows with the walk, so none is sized to the level
    level, guard = 10**12, 40
    for xs in ((0, 4), (0, 4, 8)):
        assert _chain_outcome(_native.chain, xs, 0, level, 0.3,
                              replica_bases(0, 0, 1), None, guard) == (
            "40 start sites exhausted below level 5", 40)


def _words(walk):
    """A Python walk's report words as the native entries write them: the
    scan offset, the last completed level and the edges examined."""
    return walk.scan_offset, walk.level, walk.n_examined


def _python_report(x, t0, level, cfg, guard):
    """The code and report words of the Python walk from (x, t0) run to
    ``level``."""
    walk = ExplorationCluster(LatticeSite(x, t0), cfg, scan_guard=guard)
    try:
        walk.advance_to(level)
    except ScanLimitExceededError:
        return _native._GUARD, _words(walk)
    return 0, _words(walk)


def _python_chain_report(xs, t0, level, cfg, guard):
    """The code and report words of the Python lockstep of the chain with
    no cap: those of the walk that tripped first, else of the rightmost
    walk that reached the level without stopping."""
    try:
        _, walk = chain_row_reference(xs, t0, level, cfg, None, guard)
    except ScanLimitExceededError as trip:
        return _native._GUARD, _words(trip.walk)
    return 0, _words(walk)


def _chain_report(xs, t0, bases, p, guard, level):
    """The code of walk_chain on ``bases`` and its report: the index of the
    last replica walked and that replica's report words."""
    bases = np.asarray(bases, dtype=np.uint64)
    starts = np.array(xs, dtype=np.int64)
    stops = np.empty((len(bases), len(xs) - 1), dtype=np.int64)
    rep = _native._Report()
    code = _native.load().walk_chain(
        starts.ctypes.data, len(xs), t0, bases.ctypes.data, len(bases),
        *_native._cut(edge_threshold(p)), guard, level, 0, stops.ctypes.data,
        rep)
    return code, rep[3], tuple(rep[:3])


@pytest.mark.parametrize("p", [0.5, 0.6447, 0.7, 0.8, 0.9, 1.0])
def test_report_words_match_the_python_walk(p):
    # every entry's three report words, on walks past 2000 levels, whose
    # blocks grow inside the level loop; at p = 0.5 the walks trip, which
    # the words report as well
    lib, guard = _native.load(), 2000
    for seed, t0, x, gap in ((1, 0, 0, 30), (2, -7, 1, 2), (3, 4, 6, -2)):
        cfg = replica_config(seed, p, 0)
        args = (t0, *_native._sampler(cfg), guard)
        level = t0 + 2500
        for xs in ((x,), (x, x + 2 * gap), (x, x + 2, x + 2 + 2 * gap),
                   (x - 4, x, x + 2 * gap, x + 2 * gap + 6)):
            code, words = _python_chain_report(xs, t0, level, cfg, guard)
            assert _chain_report(xs, t0, replica_bases(seed, 0, 1), p,
                                 guard, level) == (code, 0, words)
        breaks, rep = _native._Breaks(), _native._Report()
        n, margin = 2000, 500
        code = lib.walk_breaks(x, *args, n, margin, breaks, rep)
        assert (code, tuple(rep[:3])) == _python_report(
            x, t0, t0 + n + margin, cfg, guard)
        right, left, gamma = (np.empty(2501, dtype=np.int64)
                              for _ in range(3))
        rep = _native._Report()
        code = lib.walk_bounds(x, *args, t0 + 2000, level, right.ctypes.data,
                               left.ctypes.data, gamma.ctypes.data, rep)
        assert (code, tuple(rep[:3])) == _python_report(x, t0, level, cfg,
                                                        guard)
    if p == 0.5:
        # an interior start trips first: the one at 2, below level 3
        cfg = Config(15, p, 1)
        bases = np.array([cfg._base], dtype=np.uint64)
        assert _chain_report((0, 2, 4), 0, bases, p, 5, 20) == (
            _native._GUARD, 0, _python_chain_report((0, 2, 4), 0, 20, cfg,
                                                    5)[1])
        with pytest.raises(ScanLimitExceededError) as trip:
            chain_row_reference((0, 2, 4), 0, 20, cfg, None, 5)
        assert (trip.value.walk.origin, str(trip.value)) == (
            LatticeSite(2, 0), "5 start sites exhausted below level 3")


def test_a_batch_reports_its_last_replica():
    # replicas 3 to 7 run through: the report is replica 7's, index 4
    seed, p, level, guard = 4, 0.8, 300, 10_000
    for xs in ((0, 28), (0, 4, 28, 30)):
        assert _chain_report(xs, 0, replica_bases(seed, 3, 5), p, guard,
                             level) == (0, 4, _python_chain_report(
                                 xs, 0, level, replica_config(seed, p, 7),
                                 guard)[1])


def test_a_walk_block_that_grows_twice_matches_the_lockstep():
    # to level 4100, the walks' blocks, with room for FIRST_LEVELS = 1024
    # levels at first, move to blocks twice their size at levels 1025 and
    # 2051 on replica 0, and replica 1 walks on the blocks they moved to
    seed, p, level, guard, xs = 9, 0.8, 4100, 10_000, (0, 6, 400)
    bases = replica_bases(seed, 0, 2)
    stops = _native.chain(xs, 0, level, p, bases, None, guard)
    assert stops == chain_reference(xs, 0, level, p, bases, None, guard)
    assert stops[0][0] > 0 and stops[0][1] == -1
    assert _chain_report(xs, 0, bases, p, guard, level) == (
        0, 1, _python_chain_report(xs, 0, level, replica_config(seed, p, 1),
                                   guard)[1])


def test_boundary_arrays_are_owned_int64_copies():
    n = 50
    cfg = Config(8, 0.7, 3)  # its left boundary on [0, n] moves by level 4n
    cluster = ExplorationCluster(ORIGIN, cfg)
    cluster.advance_to(n)
    right, left = cluster.right_values, cluster.left_values
    for values in (right, left):
        assert isinstance(values, array) and values.typecode == "q"
    before = (right.tolist(), left.tolist())
    right[:] = array("q", [-7]) * len(right)
    left[:] = array("q", [-7]) * len(left)
    assert (cluster.right_values.tolist(),
            cluster.left_values.tolist()) == before
    snapshot = cluster.left_values
    cluster.advance_to(4 * n)
    assert snapshot.tolist() == before[1]
    assert cluster.left_values[:n + 1].tolist() != before[1]
    # the one-call walk's arrays are int64 buffers of their own, which
    # outlive the walk, and a write into one is seen by no other
    b = explore_to_level(ORIGIN, n, cfg, horizon=4 * n)
    for values in (b.right, b.left, b.gamma):
        assert isinstance(values, array) and values.typecode == "q"
    assert (b.right[:n + 1].tolist(), b.left.tolist()) == before
    assert b.gamma.tolist() == cluster.left_values.tolist()
    gamma, right = b.gamma.tolist(), b.right.tolist()
    b.left[0] = -7
    assert b.left[0] == -7
    assert (b.gamma.tolist(), b.right.tolist()) == (gamma, right)
    assert explore_to_level(ORIGIN, n, cfg).left.tolist() == before[1]


def test_level_by_level_matches_one_advance():
    cfg = Config(2, 0.8, 5)
    stepped, whole = (ExplorationCluster(ORIGIN, cfg) for _ in range(2))
    values = [stepped.advance_level() for _ in range(2000)]
    whole.advance_to(2000)
    assert all(type(v) is int for v in values)
    assert values == whole.right_values[1:].tolist()
    assert _walk_state(stepped) == _walk_state(whole) == _bounds_state(
        explore_to_level(ORIGIN, 2000, cfg))


_NEAR_CRITICAL_WALK = """
import resource
import numpy as np
from opweb import _native
from opweb.errors import ScanLimitExceededError
from opweb.lattice import replica_config
# walk_bounds as _native.bounds calls it, for the report of a tripped walk
right, left, gamma = (np.empty(22_001, dtype=np.int64) for _ in range(3))
rep = _native._Report()
code = _native.load().walk_bounds(
    0, 0, *_native._sampler(replica_config(1, 0.64, 0)),
    _native._guard(10_000), 22_000, 22_000, right.ctypes.data,
    left.ctypes.data, gamma.ctypes.data, rep)
print(code, rep[2], rep[0])
try:
    _native._check(code, rep)
except ScanLimitExceededError as e:
    print(e)
try:  # the peak of this process alone: ru_maxrss also holds the parent's
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak // 1024)
"""


def test_near_critical_native_walk_stays_small():
    # about 8.7 M sites die before the guard trips, and the walk keeps no
    # record of them: its buffers hold one entry per level
    src = Path(_native.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _NEAR_CRITICAL_WALK],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    walk, error, max_rss_mb = done.stdout.splitlines()
    assert walk == f"{_native._GUARD} 17440276 10000"
    assert error == "10000 start sites exhausted below level 16141"
    assert int(max_rss_mb) < 64


def test_walk_source_compiles_clean(tmp_path):
    # with the build's own flags, so that the optimizer runs and warnings
    # that need it, such as -Wmaybe-uninitialized, can appear
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no cc or gcc on PATH")
    subprocess.run([cc, *_native._CFLAGS, "-Wall", "-Wextra", "-pedantic",
                    "-Werror", "-c", "-o", str(tmp_path / "_walk.o"),
                    str(_native._SOURCE)], check=True, timeout=120)


_SANITIZED_RUN = """
import ctypes
import sys
import numpy as np
from opweb import _native
from opweb.errors import BoxTooNarrowError, NoPathError, ScanLimitExceededError
from opweb.explore import explore_to_level
from opweb.lattice import Config, LatticeSite, replica_bases, replica_config
from opweb.oracle import (OUTCOMES, BoxConfig, dp_right_boundary,
                          dp_rightmost_path)
if len(sys.argv) > 1:  # a build of _walk.c in place of the cached one
    _native._lib = ctypes.CDLL(sys.argv[1])
    for name, (argtypes, restype) in _native._ENTRIES.items():
        getattr(_native._lib, name).argtypes = argtypes
        getattr(_native._lib, name).restype = restype


def show(body, *args):
    try:
        result = body(*args)
    except ScanLimitExceededError as e:
        result = (str(e), e.scan_offset)
    if hasattr(result, "gamma"):
        result = (result.right, result.left, result.gamma,
                  result.scan_offset, result.n_examined)
    print(body.__name__, [getattr(v, "tolist", lambda: v)() for v in result])


for p, guard in ((0.8, 10_000), (1.0, 10_000), (0.6447, 2000), (0.5, 40)):
    for seed in range(3):
        c = replica_config(seed, p, 0)
        # one start, a pair with xr <= xl, pairs that grow their buffers
        # or trip on either walk, and families of 3 and 8, capped or not
        for xs in ((0,), (6, 0), (0, 60), (0, 8), (0, 2, 6),
                   tuple(range(0, 30, 4))):
            for cap in (None, 2):
                show(_native.chain, xs, 0, 3000, p, [c._base], cap, guard)
        show(_native.chain, (0, 28), 0, 2000, p, replica_bases(seed, 0, 10),
             None, guard)
        show(_native.chain, (0, 4, 8, 12), 0, 2000, p,
             replica_bases(seed, 0, 10), 3, guard)
        show(_native.breaks, c, 2000, 500, guard)
        show(_native.bounds, LatticeSite(1, -1), 1000, 3000, c, guard)
show(_native.chain, (6, 0), 0, 2000, 0.8, replica_bases(11, 0, 10), None,
     10_000)
# the pair's branches: a left walk that trips with no merge below its trip,
# a right walk that trips below the left one's trip, a merge at level 1
# before a left trip, and one with no trip, whose left walk of 3000 levels
# reallocates its r; an interior start that trips first
for seed, p, guard, xs in ((1, 0.5, 5, (0, 8)), (0, 0.5, 5, (0, 20)),
                           (0, 0.5, 5, (0, 2)), (6, 0.6447, 40, (0, 2))):
    show(_native.chain, xs, 0, 3000, p, replica_bases(seed, 0, 1), None,
         guard)
show(_native.chain, (0, 2, 4), 0, 20, 0.5, [Config(15, 0.5, 1)._base], None,
     5)
# a middle walk that stops above FIRST_LEVELS, and one that reaches the
# level, whose r copies span more than FIRST_LEVELS levels
show(_native.chain, (0, 28, 30), 0, 2000, 0.8, replica_bases(3, 0, 2), None,
     10_000)
# walks to their start level
for xs in ((0, 8), (8, 0), (0, 8, 10)):
    show(_native.chain, xs, 4, 4, 0.8, replica_bases(0, 0, 3), None, 10_000)
show(_native.breaks, replica_config(1, 0.8, 0), 20_000, 500, 10_000)


def dp(box, n):
    # the public DP on hashed rows: the boundary's last values, its first
    # empty level and the path's last columns, or the refusal
    try:
        boundary = dp_right_boundary(box, 0, n)
        path = (dp_rightmost_path(box, 0, n)
                if boundary.dead_from is None else [])
    except (BoxTooNarrowError, NoPathError) as e:
        print("dp", type(e).__name__, e)
        return
    print("dp", boundary.values[-3:], boundary.dead_from, path[-3:])


# the DP on the widest box, the last rung of check's ladder at n = 2000,
# and on the first band of that ladder, which follows the walk's path
n, cfg = 2000, replica_config(1001, 0.7, 0)
walk = explore_to_level(LatticeSite(0, 0), n, cfg)
right, left = walk.right.tolist(), walk.left.tolist()
box = BoxConfig(cfg, min(min(left), 0) - 2 * n - 64, n + 2, 0, n)
reach = max(max(r - l for r, l in zip(right, left)), -left[0])
band = BoxConfig(cfg, left[0] - 2, left[0] + reach + 2, 0, n,
                 [x - left[0] for x in left])
for b in (box, band):
    print((n, b.x_max - b.x_min + 1),
          dp_right_boundary(b, 0, n).values == right,
          dp_rightmost_path(b, 0, n) == left)
# a box that dies, and the refusals of a seed and of a reachable set on the
# right wall
dp(BoxConfig(Config(3, 0.3, 3), -145, 42, 0, 40), 40)
dp(BoxConfig(Config(1, 0.0, 1), -10, 0, 0, 2), 2)
dp(BoxConfig(Config(1, 1.0, 1), -6, 6, 0, 10), 10)


def judge(*args):
    code, boxes = _native.judge_walk(*args)
    print("judge", code, [(*box[:3], OUTCOMES[box[3]]) for box in boxes])


# the ladder of that walk, which certifies on its first band, and of its
# path moved a site off the lattice, which gets only the widest box
judge(cfg, n, walk.right, walk.left, 64)
judge(cfg, n, walk.right, np.asarray(walk.left) - 1, 64)
# on bands that refuse, each wider than the last, so that the scratch
# grows, for a path that hugs its boundary at p = 0.6; on a box that dies
# left of the walk's path (slack -238); and on bands and a box that all die
# under a path that they hold, at p = 0.3
cfg = Config(0, 0.6, 1024)
walk = explore_to_level(LatticeSite(0, 0), 100, cfg)
j = np.arange(101)
r, l = np.asarray(walk.right), np.asarray(walk.left)
hugging = np.maximum(l, (r[None, :] + np.abs(j[:, None] - j[None, :])).min(1))
judge(cfg, 100, walk.right, hugging, 64)
judge(cfg, 100, walk.right, walk.left, -238)
zigzag = -(np.arange(41, dtype=np.int64) % 2)
judge(Config(3, 0.3, 3), 40, zigzag, zigzag, 64)
# check's batches: one with a corrupt replica, one whose second walk trips
# its guard, and one whose last boxes, one per walk at slack -201, grow the
# scratch at walks 1 and 3, to 4 and then 7 words a row
show(_native.check_walks, replica_bases(1001, 0, 6), 0.7, 2000, 64, 3,
     10_000)
show(_native.check_walks, replica_bases(2, 20, 10), 0.6, 60, 64, -1, 20)
show(_native.check_walks, replica_bases(2, 0, 8), 0.6, 100, -201, -1,
     10_000)
# the p = 0 probe's DP, and that of a box whose level maxima differ: its
# code and the bit lengths of the rows of its two tables
for p, stream in ((0.0, 3), (0.3, 3), (0.3, 20)):
    code, _, _, (lo, hi), _, _ = _native.hashed_dp([-16] * 5, 0, 25, 16,
                                                   Config(0, p, stream))
    print("hashed_dp", [code, lo + hi])
"""


def test_walk_entries_run_clean_under_sanitizers(tmp_path):
    # every entry, built with AddressSanitizer and UBSan, on guard trips,
    # a pair with xr <= xl, each branch of the pair, capped and uncapped
    # families, an interior trip, growing walks and long copies, walks to
    # their start level, the public DP on hashed rows of the widest box, of
    # a band, of a box that dies and of boxes that its walls refuse, the
    # walk judge on its first band, on the widest box, on refusing bands and
    # on dying boxes, check's batches and the probe's DP: no report, and
    # the outputs of the plain build
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no cc or gcc on PATH")
    asan = subprocess.run([cc, "-print-file-name=libasan.so"],
                          capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(asan):
        pytest.skip(f"{cc} finds no libasan.so")
    lib = tmp_path / "_walk-sanitized.so"
    subprocess.run([cc, *_native._CFLAGS, "-g", "-fsanitize=address,undefined",
                    "-fno-sanitize-recover=all", "-o", str(lib),
                    str(_native._SOURCE)], check=True, timeout=120)
    src = Path(_native.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    plain = subprocess.run([sys.executable, "-c", _SANITIZED_RUN], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=300)
    # a small quarantine of freed blocks: the child peaks near 95 MB, not
    # 120 MB
    env.update(LD_PRELOAD=asan,
               ASAN_OPTIONS="detect_leaks=0:quarantine_size_mb=16")
    sanitized = subprocess.run([sys.executable, "-c", _SANITIZED_RUN,
                                str(lib)], env=env, capture_output=True,
                               text=True, timeout=300)
    assert sanitized.returncode == 0, sanitized.stderr[-4000:]
    assert sanitized.stdout == plain.stdout
    # the widest box and the first band certify the walk; the dying box
    # dies at level 14, and the walls refuse
    assert ("(2000, 6067) True True\n(2000, 31) True True\n"
            "dp [-35, -40, -41] 14 []\n"
            "dp BoxTooNarrowError seed row touched the right wall\n"
            "dp BoxTooNarrowError reachable set touched the right wall\n"
            ) in plain.stdout
    # bands of margin 2 to 64 refuse, and the one of margin 128 certifies
    bands = [(-192 - m, 28, 1, "box_too_narrow") for m in (2, 4, 8, 16, 32,
                                                            64)]
    assert ("judge 0 [(-2, 28, 1, 'ok')]\n"
            "judge 4 [(-4065, 2002, 0, 'left_boundary_mismatch')]\n"
            "judge 4 " + str(bands + [(-320, 28, 1, "left_boundary_mismatch")])
            + "\njudge 1 [(-264, 102, 0, 'box_too_narrow')]\n"
            "judge 2 " + str([(-2 ** k, 2, 1, "dp_dead") for k in range(1, 8)]
                             + [(-145, 42, 0, "dp_dead")])
            + "\n") in plain.stdout
    # a corrupt replica, a guard trip that stops its batch, growing
    # scratch, and the probe's DP dying at level 1 and at level 3, with the
    # upper table's row 4 reached by the entry edge
    assert ("check_walks [[0, 0, 0, 3, 0, 0], [1, 1, 1, 1, 1, 1]]\n"
            "check_walks ['20 start sites exhausted below level 60', 20]\n"
            "check_walks [[1, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1, 1]]"
            "\n"
            "hashed_dp [3, [17, 0, 0, 0, 0, 17, 0, 0, 0, 0]]\n"
            "hashed_dp [0, [17, 16, 11, 12, 11, 17, 16, 11, 12, 11]]\n"
            "hashed_dp [4, [17, 16, 7, 0, 0, 17, 16, 7, 0, 1]]\n"
            ) in plain.stdout
    # the trips and the merge of the pair's branches, the interior trip,
    # the long copies, and the walks to their start level
    assert ("chain ['5 start sites exhausted below level 9', 5]\n"
            "chain ['5 start sites exhausted below level 8', 5]\n"
            "chain ['5 start sites exhausted below level 14', 5]\n"
            "chain [[1]]\n"
            "chain ['5 start sites exhausted below level 3', 5]\n"
            "chain [[-1, 2], [1512, 5]]\n"
            "chain [[-1], [-1], [-1]]\n"
            "chain [[0], [0], [0]]\n"
            "chain [[-1, -1], [-1, -1], [-1, -1]]\n") in plain.stdout


def test_native_walk_loads_where_a_compiler_exists():
    assert _native.load() is not None
    cfg = Config(1, 0.8, 1)
    reference = ExplorationCluster(ORIGIN, cfg)
    reference.advance_to(300)
    assert _bounds_state(explore_to_level(ORIGIN, 300, cfg)) == _walk_state(
        reference)


def test_a_library_that_cannot_be_had_names_its_cause(fresh_loader,
                                                     monkeypatch, tmp_path):
    # no compiler, an unreadable source, a failed build, an unwritable
    # cache and a library that does not load each raise the typed error,
    # and the next load tries again
    native = fresh_loader
    broken = tmp_path / "broken.c"
    broken.write_text("int walk_chain(void) { return }\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    causes = {
        "no C compiler": ("_COMPILERS", ("opweb-no-such-cc",)),
        "cannot read": ("_SOURCE", tmp_path / "missing.c"),
        "failed to build broken.c": ("_SOURCE", broken),
        "cannot write the build cache": ("_CACHE", blocker / "cache"),
    }
    for cause, (name, value) in causes.items():
        with monkeypatch.context() as patch:
            patch.setattr(native, name, value)
            with pytest.raises(NativeLibraryError, match=cause):
                native.load()
        assert native._lib is None
    # a whole cached file that is no shared library
    key = native._key(native._SOURCE.read_bytes(),
                      next(filter(shutil.which, native._COMPILERS)))
    fake = tmp_path / f"_walk-{key.decode()}.so"
    fake.write_bytes(b"not ELF" + native._trailer(b"not ELF", key))
    with pytest.raises(NativeLibraryError, match="cannot load"):
        native.load()
    fake.unlink()
    assert native.load() is not None


def test_python_walk_for_sources_and_left_deltas():
    cfg = Config(1, 0.8, 1)
    recorded = ExplorationCluster(ORIGIN, cfg)
    assert type(recorded) is ExplorationCluster
    recorded.advance_to(30)
    reference = explore_to_level(ORIGIN, 30, cfg)
    assert len(recorded.left_deltas) == 30
    assert _walk_state(recorded) == _bounds_state(reference)
    with pytest.raises(InvalidArgumentError):
        ExplorationCluster(ORIGIN)


def test_damaged_cache_file_is_rebuilt_not_loaded(fresh_loader, monkeypatch,
                                                  tmp_path):
    native = fresh_loader
    native.load()
    [cached] = tmp_path.glob("_walk-*.so")
    key = cached.name[len("_walk-"):-len(".so")].encode()
    whole = cached.read_bytes()
    body = whole[:-len(native._trailer(b"", key))]
    builds, loads = [], []
    build, cdll = native._build, native.ctypes.CDLL

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    def checking_cdll(path):
        loads.append(native._valid(Path(path), key))
        return cdll(path)

    monkeypatch.setattr(native, "_build", counting_build)
    monkeypatch.setattr(native.ctypes, "CDLL", checking_cdll)
    damaged = {"truncated": whole[:len(whole) // 2],
               "stale": body + native._trailer(body, b"0" * len(key)),
               "empty": b""}
    for name, content in damaged.items():
        # a new file, as the loaded library's pages stay mapped from the old
        spare = tmp_path / "damaged"
        spare.write_bytes(content)
        spare.replace(cached)
        monkeypatch.setattr(native, "_lib", None)
        assert native.load() is not None, name
        assert native._valid(cached, key), name
    assert len(builds) == len(damaged)
    assert loads == [True] * len(damaged)
    reference = ExplorationCluster(ORIGIN, Config(4, 0.8, 9))
    reference.advance_to(200)
    assert _bounds_state(explore_to_level(
        ORIGIN, 200, Config(4, 0.8, 9))) == _walk_state(reference)


def test_a_build_removes_older_builds(fresh_loader, tmp_path):
    stale = [tmp_path / f"_walk-{key}.so" for key in ("0" * 16, "f" * 16)]
    kept = [tmp_path / "_walk-0000.tmp", tmp_path / "other.so"]
    for path in stale + kept:
        path.write_bytes(b"old build")
    assert fresh_loader.load() is not None
    [built] = tmp_path.glob("_walk-*.so")
    assert built not in stale
    assert sorted(tmp_path.iterdir()) == sorted([built, *kept])


def test_a_stale_build_without_an_entry_is_rebuilt(fresh_loader, tmp_path):
    # a cached build of an older source, whole and under its own key, that
    # lacks walk_breaks: the source's hash in the key sends load to a new
    # build, which exports every entry that load registers
    native = fresh_loader
    cc = next(filter(shutil.which, native._COMPILERS))
    old = native._SOURCE.read_bytes().replace(b"walk_breaks", b"walk_gone")
    old_key = native._key(old, cc)
    stale = tmp_path / f"_walk-{old_key.decode()}.so"
    native._build(cc, old, stale, old_key)
    assert native._valid(stale, old_key)
    assert not hasattr(native.ctypes.CDLL(str(stale)), "walk_breaks")
    lib = native.load()
    assert lib is not None and not stale.exists()
    [built] = tmp_path.glob("_walk-*.so")
    exported = native.ctypes.CDLL(str(built))
    assert [name for name in native._ENTRIES
            if not hasattr(exported, name)] == []
    assert "walk_breaks" in native._ENTRIES
    assert lib.walk_breaks.argtypes == native._ENTRIES["walk_breaks"][0]


def _build_and_walk(_):
    right = explore_to_level(ORIGIN, 500, Config(11, 0.75, 5)).right
    return _native.load() is not None, right


def test_concurrent_first_builds_load_whole_files(fresh_loader, tmp_path):
    reference = ExplorationCluster(ORIGIN, Config(11, 0.75, 5))
    reference.advance_to(500)
    # forked workers start with the loader untried and the cache empty
    with multiprocessing.get_context("fork").Pool(3) as pool:
        results = pool.map_async(_build_and_walk, range(3)).get(timeout=120)
    assert [(ok, r.tolist()) for ok, r in results] == [
        (True, reference.right_values.tolist())] * 3
    [cached] = tmp_path.iterdir()
    assert cached.suffix == ".so"


def test_threads_share_one_first_build(fresh_loader, monkeypatch):
    # more threads than cores make their first call at once, with the cache
    # empty and thread switches forced often: one of them builds, and all
    # get its library
    native, builds, libs = fresh_loader, [], []
    build = native._build

    def counted_build(*args):
        builds.append(args)
        build(*args)

    def first_call():
        start.wait(timeout=60)
        libs.append(native.load())

    monkeypatch.setattr(native, "_build", counted_build)
    start = threading.Barrier(8)
    threads = [threading.Thread(target=first_call) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert len(libs) == 8 and all(lib is libs[0] for lib in libs)
