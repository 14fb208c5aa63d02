"""Exact brute-force references on finite boxes.

The level-by-level reachability DP recomputes right boundaries and rightmost
paths independently of the exploration walk, reading the same deterministic
edge randomness.  Truncating the half-line seed row at the box wall is made
sound by a certificate: a second, pessimistic DP additionally marks the wall
column reachable at every level whose entry edge from outside the box is
open.  Whenever the optimistic and pessimistic answers disagree in any way
that could affect the result, the box cannot certify an exact answer and
`BoxTooNarrowError` is raised; agreement pins the true value exactly.

The DP runs on bit rows: each box row is packed into a Python int at DP
time, bit ``i`` standing for column ``x_min + i``, so one level of
reachability is ``((r & ur) << 1) | ((r & ul) >> 1)`` masked to the box
width, and a row's rightmost reachable site is ``bit_length() - 1``.

A narrow box certifies only what a wider one would.  Take boxes B inside W
over the same levels, and compare them on B's columns.  B's truncated
(lower) table is a subset of W's, because B truncates more seeds; W's
pessimistic (upper) table is a subset of B's, because B assumes that every
open wall entry is reached.  So a level max or a predecessor cell on which
B's two tables agree has the same value in W's two tables, and in the true
configuration.  `box_ladder` uses this to judge a walk on boxes sized from
the walk itself: the first spans 64 columns left of the walk's path, each
refusal or death doubles that extent, and the last holds the worst-case
box ``[-2n - slack, n + 2]``.  A wrong guess at the size can only cause a
refusal, never a wrong answer.  A true walk is judged on the first box: a
path that enters past the left wall and ends right of the walk's path
must cross that path, so the seeds already reach where it ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BoxTooNarrowError, InvalidArgumentError, NoPathError,
                     ScanLimitExceededError)
from .explore import explore_to_level
from .lattice import Config, LatticeSite, edge_status_array, replica_config
from .runner import pmap


@dataclass(eq=False)
class BoxConfig:
    """Materialized edge statuses for all edges inside a box.

    Boolean arrays are indexed ``[t - t_min, x - x_min]``; entries at odd
    parity are False and never read.  ``entry_open[j]`` is the status of
    the up-right edge from ``(x_min - 1, t_min + j)``, the only kind of
    edge through which anything left of the box can influence it.  The DP
    packs ``open_ur``/``open_ul`` into bit rows (bit ``i`` is column
    ``x_min + i``) each time it runs, so edits to the arrays after
    construction are seen by the next DP call.
    """

    cfg: Config
    x_min: int
    x_max: int
    t_min: int
    t_max: int
    open_ur: np.ndarray = field(repr=False, default=None)
    open_ul: np.ndarray = field(repr=False, default=None)
    entry_open: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        # numpy integer bounds would turn the bit-row masks into int64
        self.x_min, self.x_max, self.t_min, self.t_max = map(
            int, (self.x_min, self.x_max, self.t_min, self.t_max))
        if self.x_max <= self.x_min or self.t_max <= self.t_min:
            raise InvalidArgumentError("degenerate box")
        height = self.t_max - self.t_min
        width = self.x_max - self.x_min + 1
        self.open_ur = np.zeros((height, width), dtype=bool)
        self.open_ul = np.zeros((height, width), dtype=bool)
        # rows of one parity share their even columns: c0::2 with c0 fixed
        for j0 in range(min(2, height)):
            c0 = (self.x_min + self.t_min + j0) % 2
            ts = np.arange(self.t_min + j0, self.t_max, 2, dtype=np.int64)
            xs = np.arange(self.x_min + c0, self.x_max + 1, 2, dtype=np.int64)
            fx = np.tile(xs, len(ts))
            ft = np.repeat(ts, len(xs))
            shape = (len(ts), len(xs))
            self.open_ur[j0::2, c0::2] = edge_status_array(
                self.cfg, fx, ft, np.ones_like(fx)).reshape(shape)
            self.open_ul[j0::2, c0::2] = edge_status_array(
                self.cfg, fx, ft, np.zeros_like(fx)).reshape(shape)
        wall_ts = np.arange(self.t_min, self.t_max)
        wall_mask = (self.x_min - 1 + wall_ts) % 2 == 0
        self.entry_open = np.zeros(height, dtype=bool)
        if wall_mask.any():
            self.entry_open[wall_mask] = edge_status_array(
                self.cfg, np.full(int(wall_mask.sum()), self.x_min - 1, dtype=np.int64),
                wall_ts[wall_mask], np.ones(int(wall_mask.sum()), dtype=np.int64))


@dataclass(frozen=True)
class DpBoundary:
    """Right boundary from the DP; ``dead_from`` is the first empty level."""

    start_t: int
    values: np.ndarray
    dead_from: int | None = None


def _bit_rows(arr: np.ndarray) -> list[int]:
    """Each row of a bool array as an int; bit i is column i."""
    packed = np.packbits(arr, axis=1, bitorder="little")
    k = packed.shape[1]
    blob = packed.tobytes()
    return [int.from_bytes(blob[i:i + k], "little")
            for i in range(0, len(blob), k)]


def _reach_tables(box: BoxConfig, start_x: int, n: int):
    """Lower (truncated seeds) and upper (wall-pessimistic) reach tables.

    Returns the two tables as bit rows, one int per level, with the packed
    ``open_ur``/``open_ul`` rows they were built from.
    """
    width = box.x_max - box.x_min + 1
    if not box.x_min <= start_x <= box.x_max:
        raise InvalidArgumentError("start_x outside the box")
    if box.t_min + n > box.t_max:
        raise InvalidArgumentError("box too short for the requested levels")
    ur = _bit_rows(box.open_ur[:n])
    ul = _bit_rows(box.open_ul[:n])
    full = (1 << width) - 1
    wall = 0b11 << (width - 2)
    # seeds: every column up to start_x whose site has even parity
    c0 = (box.x_min + box.t_min) % 2
    seed = sum(1 << c for c in range(c0, start_x - box.x_min + 1, 2))
    lower = [seed]
    upper = [seed]
    lo = hi = seed
    for j in range(n):
        u, v = ur[j], ul[j]
        lo = (((lo & u) << 1) | ((lo & v) >> 1)) & full
        hi = (((hi & u) << 1) | ((hi & v) >> 1)) & full
        if box.entry_open[j]:
            hi |= 1
        lower.append(lo)
        upper.append(hi)
        if hi & wall:
            raise BoxTooNarrowError("reachable set touched the right wall")
    return lower, upper, ur, ul


def _max_or_none(row: int, x_min: int):
    return None if row == 0 else x_min + row.bit_length() - 1


def dp_right_boundary(box: BoxConfig, start_x: int, n: int) -> DpBoundary:
    """Exact right boundary over ``n`` levels, certified or refused.

    Per level the value is the rightmost site reachable from the half-line
    seed row; levels with an empty reachable set terminate the trajectory
    (``dead_from``).  Raises BoxTooNarrowError when the truncated seed row
    cannot be certified against influence entering past the left wall.
    """
    return _boundary_from_tables(box, _reach_tables(box, start_x, n), n)


def _boundary_from_tables(box: BoxConfig, tables, n: int) -> DpBoundary:
    lower, upper, _, _ = tables
    values = []
    dead_from = None
    for j in range(n + 1):
        lo = _max_or_none(lower[j], box.x_min)
        hi = _max_or_none(upper[j], box.x_min)
        if lo != hi:
            raise BoxTooNarrowError(
                f"level {box.t_min + j}: truncated max {lo} vs pessimistic max {hi}")
        if lo is None:
            dead_from = box.t_min + j
            break
        values.append(lo)
    return DpBoundary(box.t_min, np.array(values, dtype=np.int64), dead_from)


def dp_rightmost_path(box: BoxConfig, start_x: int, n: int) -> np.ndarray:
    """The pointwise-rightmost open path from the seed row to level ``n``.

    Backtracks the reachability DP right-edge-first; at every step the two
    candidate predecessor cells must agree between the truncated and the
    pessimistic tables, otherwise the path cannot be certified.
    """
    return _path_from_tables(box, _reach_tables(box, start_x, n), n)


def _path_from_tables(box: BoxConfig, tables, n: int) -> np.ndarray:
    lower, upper, ur, ul = tables
    anchor = _max_or_none(lower[n], box.x_min)
    if anchor is None or anchor != _max_or_none(upper[n], box.x_min):
        if anchor is None and _max_or_none(upper[n], box.x_min) is None:
            raise NoPathError(f"no open path reaches level {box.t_min + n}")
        raise BoxTooNarrowError("right boundary not certified at the top level")
    width = box.x_max - box.x_min + 1
    path = [anchor]
    y = anchor
    for j in range(n, 0, -1):
        lo, hi = lower[j - 1], upper[j - 1]
        chosen = None
        for cand, edges in ((y + 1, ul[j - 1]), (y - 1, ur[j - 1])):
            ci = cand - box.x_min
            if not 0 <= ci < width:
                continue
            bit = lo >> ci & 1
            if bit != hi >> ci & 1:
                raise BoxTooNarrowError(
                    f"predecessor cell ({cand}, {box.t_min + j - 1}) not certified")
            if bit and edges >> ci & 1:
                chosen = cand
                break
        if chosen is None:
            raise NoPathError("backtrack lost the path; inconsistent tables")
        path.append(chosen)
        y = chosen
    path.reverse()
    return np.array(path, dtype=np.int64)


FIRST_RUNG = 64  # left extent, in columns, of a ladder's first box


def box_ladder(cfg: Config, n: int, left: np.ndarray, right: np.ndarray,
               slack: int):
    """Boxes of growing width that judge a walk from (0, 0) to level ``n``.

    ``left`` and ``right`` are the walk's rightmost path and right boundary.
    With ``a = min(left.min(), 0)``, the first box spans the columns
    ``[a - 64, min(max(right.max(), 0) + 2, n + 2)]``, each next one
    doubles the left extent, and the last spans ``[a - 2n - slack, n + 2]``.
    The right wall stays right of the start (0, 0) whatever the walk
    reports.  Each box is built only when the caller asks for it.
    """
    anchor = min(left.min(), 0)
    x_max = min(max(right.max(), 0) + 2, n + 2)
    widest = 2 * n + slack
    extent = FIRST_RUNG
    while extent < widest:
        yield BoxConfig(cfg, anchor - extent, x_max, 0, n)
        extent *= 2
    yield BoxConfig(cfg, anchor - widest, n + 2, 0, n)


# -- coalescing-Brownian baseline and its random-walk oracle ----------------

WALK_RESOLUTION = 48  # lattice gap units per unit of rescaled gap

def cbm_baseline(delta: float, t: float) -> float:
    """Survival probability of two coalescing Brownian paths a gap apart.

    Closed form erf(delta / (2 sqrt(t))); validate against
    `coalescing_walk_survival` before trusting it in an experiment.
    """
    if delta <= 0 or t <= 0:
        raise InvalidArgumentError("delta and t must be positive")
    return math.erf(delta / (2.0 * math.sqrt(t)))


def coalescing_walk_survival(delta: float, t: float) -> float:
    """Survival of two coalescing simple random walks, on the lattice.

    The walks step +-1 per unit time and merge on meeting; under diffusive
    scaling with `WALK_RESOLUTION` lattice gap units per unit of ``delta`` the
    survival probability converges to `cbm_baseline`.  Start gap and step
    count are derived so the rescaled gap is exactly ``delta``; the gap
    chain is then solved exactly by `gap_walk_survival_exact`.
    """
    if delta <= 0 or t <= 0:
        raise InvalidArgumentError("delta and t must be positive")
    d = int(round(delta * WALK_RESOLUTION))
    d += d % 2
    # time is rescaled so the effective rescaled gap is exactly delta even
    # after rounding d to an even integer
    steps = int(round(t * (d / delta) ** 2))
    return gap_walk_survival_exact(d, steps)


def _judge(box: BoxConfig, right: np.ndarray, left: np.ndarray,
           n: int) -> str:
    """One box's outcome for a walk from (0, 0) to level ``n``."""
    # dp_right_boundary and dp_rightmost_path on one build of the tables
    try:
        tables = _reach_tables(box, 0, n)
        dp = _boundary_from_tables(box, tables, n)
    except BoxTooNarrowError:
        return "box_too_narrow"
    if dp.dead_from is not None:
        # a box that dies judges only the paths inside it
        return "box_too_narrow" if left.min() < box.x_min else "dp_dead"
    if not np.array_equal(dp.values, right):
        return "right_boundary_mismatch"
    try:
        path = _path_from_tables(box, tables, n)
    except BoxTooNarrowError:
        return "box_too_narrow"
    if not np.array_equal(path, left):
        return "left_boundary_mismatch"
    return "ok"


def _ladder_outcome(cfg: Config, n: int, right: np.ndarray, left: np.ndarray,
                    slack: int) -> str:
    """A walk's outcome on the boxes of `box_ladder`.

    A certified answer is final on any box; a refusal or a death widens the
    box, and only the last box's is reported.
    """
    for box in box_ladder(cfg, n, left, right, slack):
        outcome = _judge(box, right, left, n)
        if outcome not in ("box_too_narrow", "dp_dead"):
            break
    return outcome


def _check_worker(args):
    cfg, n, slack, corrupt = args
    cluster = explore_to_level(LatticeSite(0, 0), n, cfg)
    r, left = cluster.right_values, cluster.left_values
    if corrupt:
        r[n // 2] += 1
    return _ladder_outcome(cfg, n, r, left, slack)


def check_suite(ps, seeds_per_p: int, n: int, seed: int, *, workers: int = 1,
                slack: int = 64, corrupt_run: int | None = None) -> dict:
    """Exact explore-vs-DP equivalence sweep plus the p=0 guard agreement.

    Every run demands integer equality of both boundaries.  The box follows
    the walk: each walk is judged on the boxes of `box_ladder`, so a run
    reports ``box_too_narrow`` or ``dp_dead`` only when the widest box,
    ``2n + slack`` columns left of the walk's path, refuses or dies.
    ``corrupt_run`` injects an off-by-one into that run's explored right
    boundary (negative control for the reporting path).  The p values must
    be distinct: the report keeps one tally per p.
    """
    if len(set(ps)) != len(ps):
        raise InvalidArgumentError("check p values must be distinct")
    jobs = []
    labels = []
    for ip, p in enumerate(ps):
        for rep in range(seeds_per_p):
            idx = ip * seeds_per_p + rep
            jobs.append((replica_config(seed, p, idx), n, slack,
                         idx == corrupt_run))
            labels.append((p, rep))
    outcomes = pmap(_check_worker, jobs, workers)
    per_p = {p: {"passed": 0, "total": seeds_per_p} for p in ps}
    failures = []
    for (p, rep), outcome in zip(labels, outcomes):
        if outcome == "ok":
            per_p[p]["passed"] += 1
        else:
            failures.append({"p": p, "replica": rep, "kind": outcome})
    # degenerate input: the walk must trip its guard, the DP must report dead
    p0 = replica_config(seed, 0.0, len(jobs))
    guard_tripped = False
    try:
        explore_to_level(LatticeSite(0, 0), 4, p0, scan_guard=64)
    except ScanLimitExceededError:
        guard_tripped = True
    dp0 = dp_right_boundary(BoxConfig(p0, -16, 8, 0, 4), 0, 4)
    return {"per_p": per_p, "failures": failures,
            "p0_agreement": guard_tripped and dp0.dead_from == 1}


def gap_walk_survival_exact(d: int, steps: int) -> float:
    """Exact (transition DP) survival of the coalescing-walk gap chain.

    The gap of two independent +-1 walks moves +-2 w.p. 1/4 each, holds
    w.p. 1/2, and absorbs at 0.
    """
    if d <= 0 or d % 2 != 0:
        raise InvalidArgumentError("gap must be positive and even")
    size = d // 2 + steps + 1
    q = np.zeros(size, dtype=np.float64)
    q[d // 2] = 1.0
    for _ in range(steps):
        nxt = np.zeros_like(q)
        nxt[1:] += 0.25 * q[:-1]
        nxt += 0.5 * q
        nxt[:-1] += 0.25 * q[1:]
        nxt[0] = 0.0  # absorbed mass leaves the chain
        q = nxt
    return float(q[1:].sum())
