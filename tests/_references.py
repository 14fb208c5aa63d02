"""Python references of the native walks, made from `ExplorationCluster`.

Each reference takes the arguments of the `opweb._native` body it stands
for and gives the same answer, or raises the same guard error:
`bounds_reference` for `_native.bounds` (`explore.explore_to_level`),
`chain_reference` for `_native.chain` (`couple.family_eta`,
`couple.family_etas` and `couple.pair_merges`) and `estimate_reference`
for `_native.breaks` (the estimate worker).  Tests compare each native
body with its reference, and run the command line on the references by
monkeypatching them over the native bodies.  The chain's reference is a
level by level lockstep of Python walks, `lockstep_reference`; its count
of distinct values is checked against bisection on whole Python walks,
`squeeze_reference`.
`ladder_reference` stands for `_native.judge_walk` (`oracle._ladder_outcome`,
the ladder that judges one walk): it lays the boxes of `box_ladder` as
`oracle.BoxConfig`s, and judges each with `judge_reference`, which reads
the certified DP's row lengths and path through `oracle._certified_dp` and
compares in Python.
`check_reference` stands for `_native.check_walks`, the check's walks and
their ladders on a batch of replicas: `bounds_reference`'s walk and
`ladder_reference`'s ladder on each.

Two references stand for the command line's front end: `argparse_reference`
is the argparse parser that `cli.parse_argv` must agree with, and
`canonical_reference` is `ExperimentSpec.canonical` made with
`dataclasses.asdict`, whose JSON bytes every spec hash is taken from.
"""

import argparse
import dataclasses
import functools
from types import SimpleNamespace

import numpy as np

from opweb.errors import (BoxTooNarrowError, InvalidArgumentError,
                          ScanLimitExceededError)
from opweb.explore import ExplorationCluster
from opweb.lattice import LatticeSite, edge_threshold
from opweb.cli import COMMAND_DEFAULTS, LIST_FIELDS, SPEC_FLAGS
from opweb.oracle import (OUTCOMES, BoxConfig, _boundary_from_lengths,
                          _certified_dp, _refusal)


def bounds_reference(z, n, horizon, cfg, scan_guard) -> tuple:
    """`_native.bounds`, the body of `explore_to_level`, on the Python
    walk."""
    cluster = ExplorationCluster(z, cfg, scan_guard=scan_guard)
    cluster.advance_to(n)
    left = cluster.left_values
    cluster.advance_to(horizon)
    return (cluster.right_values, left, cluster.left_values,
            cluster.scan_offset, cluster.n_examined)


def lockstep_reference(xs, t0, level, cfg, scan_guard):
    """The stops of the chain of the equal-time starts ``xs`` on ``cfg``,
    one row of `_native.chain` with no cap, from a level by level lockstep
    of Python walks, and the walk whose report the chain gives.

    At each level the walks advance from the left.  Walk ``i >= 1`` stops
    at the first level where its r is at or left of the value of the start
    to its left, and from then on takes that value; walk 0 goes on to
    ``level``.  The walk returned is the rightmost that reaches ``level``
    without stopping.  The first guard trip, lowest level and then leftmost
    start, raises its error, with the walk that tripped as its ``walk``.
    """
    walks = [ExplorationCluster(LatticeSite(x, t0), cfg,
                                scan_guard=scan_guard) for x in xs]
    values, stops = list(xs), [-1] * (len(xs) - 1)
    for n in range(level - t0 + 1):
        for i, walk in enumerate(walks):
            moving = i == 0 or stops[i - 1] < 0
            if n and moving:
                try:
                    values[i] = walk.advance_level()
                except ScanLimitExceededError as trip:
                    trip.walk = walk
                    raise
            if moving and i and values[i] <= values[i - 1]:
                stops[i - 1] = n
            if i and stops[i - 1] >= 0:
                values[i] = values[i - 1]
    last = max([0] + [i for i, s in enumerate(stops, 1) if s < 0])
    return stops, walks[last]


def chain_row_reference(xs, t0, level, cfg, cap, scan_guard):
    """One row of `_native.chain` on ``cfg``, and the walk whose report it
    gives: the lockstep of the starts up to the one at which eta reaches
    ``cap``, with -2 for the starts past it, unless a prefix of the starts
    trips before it does; then the lockstep of every start."""
    k = len(xs)
    for m in range(min(cap or k, k), k + 1):
        try:
            stops, walk = lockstep_reference(xs[:m], t0, level, cfg,
                                             scan_guard)
        except ScanLimitExceededError:
            return lockstep_reference(xs, t0, level, cfg, scan_guard)
        if m == k or 1 + stops.count(-1) == cap:
            return stops + [-2] * (k - m), walk


def chain_reference(xs, t0, level, p, bases, cap, scan_guard):
    """`_native.chain` as rows of `chain_row_reference`, one per base,
    which raises at the first configuration whose chain trips."""
    rows = []
    for base in bases:
        # a configuration by its sampler alone, as make_key_sampler reads it
        cfg = SimpleNamespace(_base=int(base), _threshold=edge_threshold(p))
        rows.append(chain_row_reference(xs, t0, level, cfg, cap,
                                        scan_guard)[0])
    return rows


def squeeze_reference(xs, t0, level, cfg, cap=None):
    """The number of distinct values of ``r_x(level)`` over the equal-time
    family ``xs`` on ``cfg``, counted by bisection (the squeeze) on whole
    Python walks, or ``min(eta, cap)``.

    r_x(level) does not decrease in x, so the starts between two of equal
    value share it.  An interval of starts whose end values differ is split
    at its midpoint until its ends are neighbours, each pair of which adds
    one value.  With a cap, the count stops once the values found, plus one
    for each interval still to split, reach it.
    """
    def value(i):
        walk = ExplorationCluster(LatticeSite(xs[i], t0), cfg)
        walk.advance_to(level)
        return walk.right_values[-1]

    last = len(xs) - 1
    r = {0: value(0), last: value(last)}
    eta = 1
    todo = [(0, last)] if r[0] != r[last] else []
    while todo and (cap is None or eta + len(todo) < cap):
        lo, hi = todo.pop()
        if hi - lo == 1:
            eta += 1
            continue
        mid = (lo + hi) // 2
        r[mid] = value(mid)
        todo += [(a, b) for a, b in ((mid, hi), (lo, mid)) if r[a] != r[b]]
    eta += len(todo)
    return eta if cap is None else min(eta, cap)


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
    r = np.asarray(r)[:keep + 1]
    idx = np.flatnonzero(r == np.asarray(left)[:keep + 1])
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


FIRST_MARGIN = 2  # columns between a ladder's first band and the walk's path


def is_lattice_walk(left: np.ndarray, right: np.ndarray, n: int) -> bool:
    """Whether ``left`` is a lattice path from a site (l_0, 0), l_0 <= 0,
    to level ``n`` that stays at or left of ``right``."""
    if len(left) != n + 1 or len(right) != n + 1:
        return False
    start = int(left[0])
    return bool(start <= 0 and start % 2 == 0
                and (np.abs(left[1:] - left[:-1]) == 1).all()
                and (left <= right).all())


def box_ladder(cfg, n: int, left, right, slack: int):
    """Boxes of growing width that judge a walk from (0, 0) to level ``n``.

    ``left`` and ``right`` are the walk's rightmost path and right boundary.
    The first rungs are bands that follow the path: with margin ``m``, row
    ``j`` spans ``[left[j] - m, left[j] + reach + 2]``, where
    ``reach = max(max(right - left), -left[0])`` keeps the start (0, 0) and
    every ``right[j]`` two columns inside the right wall; a band has
    ``max(right - left) + m + 3`` columns for a walk with ``right[0] = 0``.
    The first band has ``m = FIRST_MARGIN``, and each next one doubles
    ``m`` while it stays below ``2n + slack``.  The last rung is the
    rectangle ``[min(left.min(), 0) - 2n - slack, n + 2]``, whose left wall
    moves to column 0 if it would lie right of the start.  A walk whose
    path is not a lattice path from a site at or left of 0 that stays at or
    left of ``right`` gets only the last rung.  Each box is built only when
    the caller asks for it.
    """
    widest = 2 * n + slack
    left, right = np.asarray(left), np.asarray(right)
    if is_lattice_walk(left, right, n):
        start = int(left[0])
        reach = max(int((right - left).max()), -start)
        shear = left - start
        margin = FIRST_MARGIN
        while margin < widest:
            x_min = start - margin
            yield BoxConfig(cfg, x_min, x_min + margin + reach + 2, 0, n,
                            shear)
            margin *= 2
    # the last box holds the start (0, 0) however negative the slack
    x_min = min(min(int(left.min()), 0) - widest, 0)
    yield BoxConfig(cfg, x_min, n + 2, 0, n)


def judge_reference(box, right, left, n) -> str:
    """One box's outcome for a walk from (0, 0) to level ``n``, a rung of
    ``judge_walk``, in Python, from the certified DP's row lengths and
    path."""
    try:
        code, lo, hi, path, (t, x) = _certified_dp(box, 0, n)
        boundary = _boundary_from_lengths(box, lo, hi)
    except BoxTooNarrowError:
        return "box_too_narrow"
    if boundary.dead_from is not None:
        # a box that dies judges only the paths inside it
        outside = any(col < w for col, w in zip(left, box.lefts))
        return "box_too_narrow" if outside else "dp_dead"
    if boundary.values != list(right):
        return "right_boundary_mismatch"
    # a certified boundary certifies the path: see oracle's docstring
    if code:
        raise _refusal(code, t, x)
    if path != list(left):
        return "left_boundary_mismatch"
    return "ok"


def ladder_reference(cfg, n, right, left, slack):
    """`_native.judge_walk` in Python: the boxes of `box_ladder`, judged
    one by one until one certifies an answer or is the last.  Returns the
    boxes judged, each as its left and right columns at level 0, whether it
    is a band, and its outcome."""
    judged = []
    for box in box_ladder(cfg, n, left, right, slack):
        outcome = judge_reference(box, right, left, n)
        # a band's rows follow a lattice path, so its shear is never all 0
        judged.append((box.x_min, box.x_max, int(any(box.shear)), outcome))
        if outcome not in ("box_too_narrow", "dp_dead"):
            break
    return judged


def check_reference(bases, p, n, slack, corrupt, scan_guard):
    """`_native.check_walks` on the Python walk and ladder: each base's
    walk from (0, 0) to level ``n``, its r raised by one at ``n // 2`` on
    replica ``corrupt``, judged by `ladder_reference`.  The first walk that
    trips raises its guard error."""
    verdicts, counts = [], []
    for i, base in enumerate(bases):
        cfg = SimpleNamespace(_base=int(base), _threshold=edge_threshold(p))
        right, left, *_ = bounds_reference(LatticeSite(0, 0), n, n, cfg,
                                           scan_guard)
        right = np.array(right)
        right[n // 2] += i == corrupt
        judged = ladder_reference(cfg, n, right, np.asarray(left), slack)
        verdicts.append(OUTCOMES.index(judged[-1][3]))
        counts.append(len(judged))
    return verdicts, counts


@functools.cache
def argparse_reference() -> argparse.ArgumentParser:
    """The command line as argparse reads it: one subparser per command,
    a flag per spec field, list flags with ``nargs="*"``.  Built once;
    parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="opweb")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMAND_DEFAULTS:
        sp = sub.add_parser(name)
        for key, kind in SPEC_FLAGS.items():
            sp.add_argument("--" + key.replace("_", "-"), type=kind,
                            nargs="*" if key in LIST_FIELDS else None)
        sp.add_argument("--spec", type=str)
    return ap


def canonical_reference(spec) -> dict:
    """`ExperimentSpec.canonical` by a deep copy of every field."""
    d = dataclasses.asdict(spec)
    del d["out"], d["workers"]
    for key in LIST_FIELDS:
        d[key] = list(d[key])
    return d
