"""Exact brute-force references on finite boxes.

The level-by-level reachability DP recomputes right boundaries and rightmost
paths independently of the exploration walk, reading the same deterministic
edge randomness.  Truncating the half-line seed row at the box wall is made
sound by a certificate: a second, pessimistic DP additionally marks the
first site of a row reachable whenever the edge entering it from outside the
box is open.  Whenever the optimistic and pessimistic answers disagree in
any way that could affect the result, the box cannot certify an exact
answer and `BoxTooNarrowError` is raised; agreement pins the true value
exactly.

A box need not be a rectangle.  Row ``j`` holds ``width`` columns from its
own left wall ``lefts[j]``, and the wall steps by at most one column per
level.  Then the only edge from left of the box into row ``j + 1`` is the
up-right edge from the site just left of row ``j``, and only when the wall
does not step right; that is the entry the pessimistic DP marks.  On the
right, a row whose reachable set touches its two rightmost columns is
refused, because the next step could leave the box there.

The DP runs on bit rows, bit ``i`` standing for column ``lefts[j] + i``,
so one level of reachability is ``((r & ur) << 2 | (r & ul)) >> (1 + d)``
masked to the box width, where ``d = lefts[j + 1] - lefts[j]``, and a
row's rightmost reachable site is its bit length less one.  ``dp_box`` of
``_walk.c``, the one body of the DP, runs it on rows of 64-bit words, each
row's edges hashed straight into its words as the DP reaches it, so no box
holds an edge: a `BoxConfig` is its walls alone, and `_certified_dp` is one
call of ``dp_box`` on them, for `dp_right_boundary` and
`dp_rightmost_path`.  ``check`` builds no box for its walks: each range of
its replicas is walked and judged in one call of ``check_walks``, which
walks each replica and lays the whole ladder below on the walk in place,
running ``dp_box`` on each box, and `_judged_walks` only names the
outcomes.  Its p = 0 probe is `dp_right_boundary` on one rectangle.
`_ladder_outcome` names the ladder's outcome on a walk handed in
(``judge_walk``): the tests judge deliberately wrong walks with it.  Each
of them hashes each edge with the judge's own copy of the lattice's mix,
and the judge calls neither the walk's sampler nor any other walk code, so
a fault in the walk cannot also hide in its judge.  The tests hold the
references: a DP on numpy bool rows, its cells read from
`lattice.edge_status_array`, and the walks, the ladder and each box's
verdict in Python.

A narrow box certifies only what a wider one would.  Take boxes B inside W
over the same levels, of any shape, and compare them on B's cells.  B's
truncated (lower) table is a subset of W's, because B truncates more seeds.
W's pessimistic (upper) table is a subset of B's: a path of W's that enters
B from the left does so by one of B's entry edges, which B marks reached,
and one that would enter B from the right must first leave it there, which
B refuses.  So a level max or a predecessor cell on which B's two tables
agree has the same value in W's two tables, and in the true configuration.

``judge_walk`` uses this to judge a walk on a ladder of boxes.  A walk
whose path ``l`` is a lattice path from a site ``(l_0, 0)``, ``l_0 <= 0``,
that stays at or left of its r is judged first on bands that follow
``l``: row ``j`` starts ``m`` columns left of ``l[j]`` and ends two
columns right of the walk's widest reach, ``m`` is 2 on the first band,
and each refusal or death doubles it while it stays below ``2n + slack``.
The last box, and the only one of any other walk, is the worst-case
rectangle from ``2n + slack`` columns left of the walk's path to column
``n + 2``.  A band placed from a wrong walk can only cause a refusal,
never a wrong answer.  A true walk is judged on the first band, as on any
box that holds ``l`` and two columns right of r: ``l`` is an open path
from a seed, so its cells are in the lower table, and a path that enters
past the wall, left of ``l``, and ends at or right of ``l`` must cross
``l``, so meet it at a site, from where the lower table follows it.  So
the two tables agree on every cell at or right of ``l``, at any margin of
0 or more, and those cells hold every level max and both predecessor
cells of every step of ``l``.

A box whose two tables agree on the bit length of every row, none of them
empty, certifies its backtracked path too, so a box never refuses the
path once its boundary certifies.  The path starts at the top level's
max, a cell of the lower table, and steps from a cell ``y`` of the lower
table at level ``j + 1`` to ``y + 1`` at level ``j`` where it can, else to
``y - 1``.  The lower table is the seed row carried up by open edges, so
some predecessor of ``y`` is in it with its edge to ``y`` open.  If that
is not ``y + 1``, it is ``y - 1``: the step to ``y - 1`` is tried only
where ``y - 1`` is in the lower table, hence in the upper one.  Say ``y +
1`` were in the upper table and not in the lower one.  Then the lower
table's path to ``y`` runs through ``(y - 1, j)``.  A cell of the upper
table outside the lower one is reached from an entry edge, which lands on
the first site of its row, at or left of that path, by an open path that
stays in the box and ends at ``(y + 1, j)``, right of it.  Lattice paths
move one column per level, so the two share a site; the lower table holds
it, and from it follows the open path up to ``(y + 1, j)``, which is then
in the lower table after all.  So every cell that the backtrack reads
agrees between the two tables, and it never loses the path.

The public DP gives Python ints and lists, and this module loads no
numpy: only `gap_walk_survival_exact`, a reference that the tests call,
imports it, when it runs.  ``check`` imports this module when it runs; the
walk commands never do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _native
from .errors import (DEFAULT_SCAN_GUARD, BoxTooNarrowError,
                     InvalidArgumentError, NoPathError,
                     ScanLimitExceededError)
from .lattice import Config, replica_bases, replica_config
from .runner import pmap, replica_ranges


@dataclass(eq=False)
class BoxConfig:
    """A box of the lattice of a configuration, whose edges the DP hashes.

    Row ``j``, at level ``t_min + j``, holds the columns ``x_min + shear[j]``
    through ``x_max + shear[j]``.  ``shear`` has one entry per level from
    ``t_min`` to ``t_max``, starts at 0 and steps by at most 1 per row; left
    out, it is all zeros and the box is the rectangle ``[x_min, x_max]``.
    ``lefts[j]`` is row ``j``'s left column.  Both are lists of ints.  The
    box holds no edge: the native DP hashes each row's edges under the
    sampler of ``cfg`` as it reaches the row.
    """

    cfg: Config
    x_min: int
    x_max: int
    t_min: int
    t_max: int
    shear: list = field(repr=False, default=None)
    lefts: list = field(init=False, repr=False, default=None)

    def __post_init__(self):
        # as Python ints, whatever integer type the bounds and the shear
        # come in
        self.x_min, self.x_max, self.t_min, self.t_max = map(
            int, (self.x_min, self.x_max, self.t_min, self.t_max))
        if self.x_max <= self.x_min or self.t_max <= self.t_min:
            raise InvalidArgumentError("degenerate box")
        height = self.t_max - self.t_min
        if self.shear is None:
            shear = [0] * (height + 1)
        else:
            shear = [int(s) for s in self.shear]
            if (len(shear) != height + 1 or shear[0] != 0
                    or any(abs(b - a) > 1 for a, b in zip(shear, shear[1:]))):
                raise InvalidArgumentError(
                    "shear must start at 0 and step by at most 1 per level")
        self.shear = shear
        self.lefts = [self.x_min + s for s in shear]


@dataclass(frozen=True)
class DpBoundary:
    """Right boundary from the DP; ``dead_from`` is the first empty level."""

    start_t: int
    values: list
    dead_from: int | None = None


# the DP's refusals, by the codes that dp_box returns
SEED_WALL, WALL, NO_PATH, TOP, UNSURE, LOST = range(1, 7)
_REFUSALS = {
    SEED_WALL: (BoxTooNarrowError, "seed row touched the right wall"),
    WALL: (BoxTooNarrowError, "reachable set touched the right wall"),
    NO_PATH: (NoPathError, "no open path reaches level {t}"),
    TOP: (BoxTooNarrowError, "right boundary not certified at the top level"),
    UNSURE: (BoxTooNarrowError, "predecessor cell ({x}, {t}) not certified"),
    LOST: (NoPathError, "backtrack lost the path; inconsistent tables"),
}


def _refusal(code: int, t: int | None = None, x: int | None = None):
    """The refusal of ``code``, naming level ``t`` and column ``x``."""
    kind, message = _REFUSALS[code]
    return kind(message.format(t=t, x=x))


def _raised(result):
    """``result``, unless it stands for a refusal, which is raised: a
    refusal itself, or a ``(code, t, x)`` of `_refusal`."""
    if isinstance(result, Exception):
        raise result
    if isinstance(result, tuple):
        code, t, x = result
        raise _refusal(code, t, x)
    return result


def _certified_dp(box: BoxConfig, start_x: int, n: int):
    """The certified DP of one box from the seed row up to ``start_x``.

    Returns the right boundary over ``n`` levels and the rightmost path,
    each as its value or as what stands for its refusal, so that a caller
    can rank the two: the boundary's refusal itself, the path's as the
    ``(code, t, x)`` that `_raised` makes it from, so that only a caller
    that wants the path builds its refusal.  A reachable set that touches
    the right wall refuses both and is raised.  The body is ``dp_box`` of
    ``_walk.c``.
    """
    _check_levels(box, start_x, n)
    code, _, _, lengths, path, (j, x) = _native.hashed_dp(
        box.lefts[:n + 1], box.t_min, box.x_max - box.x_min + 1,
        start_x - box.x_min, box.cfg)
    if code in (SEED_WALL, WALL):
        raise _refusal(code)
    if code:
        path = (code, box.t_min + j, x)
    return _boundary_from_lengths(box, *lengths), path


def _check_levels(box: BoxConfig, start_x: int, n: int) -> None:
    """Refuse a seed column outside row 0, or a count of levels ``n`` that
    is negative or past the box's top row."""
    if not box.x_min <= start_x <= box.x_max:
        raise InvalidArgumentError("start_x outside the box")
    if not 0 <= n < len(box.lefts):
        raise InvalidArgumentError("box too short for the requested levels")


def _max_or_none(length: int, left: int):
    """The column of a row's rightmost reached cell, from its bit length."""
    return None if length == 0 else left + length - 1


def dp_right_boundary(box: BoxConfig, start_x: int, n: int) -> DpBoundary:
    """Exact right boundary over ``n`` levels, certified or refused.

    Per level the value is the rightmost site reachable from the half-line
    seed row; levels with an empty reachable set terminate the trajectory
    (``dead_from``).  Raises BoxTooNarrowError when the truncated seed row
    cannot be certified against influence entering past the left wall.
    """
    return _raised(_certified_dp(box, start_x, n)[0])


def _boundary_from_lengths(box: BoxConfig, lo: list, hi: list):
    """The boundary, or its refusal, from the bit lengths of the rows of
    the lower (``lo``) and upper (``hi``) tables."""
    # the first level whose maxima differ or that is empty ends the values
    values = []
    for j, (left, a, b) in enumerate(zip(box.lefts, lo, hi)):
        if a != b:
            return _uncertified(box.t_min + j, a, b, left)
        if not a:
            return DpBoundary(box.t_min, values, box.t_min + j)
        values.append(left + a - 1)
    return DpBoundary(box.t_min, values)


def _uncertified(t: int, lo: int, hi: int, left: int) -> BoxTooNarrowError:
    """The refusal of level ``t``, whose row from column ``left`` has bit
    length ``lo`` in the lower table and ``hi`` in the upper one."""
    return BoxTooNarrowError(
        f"level {t}: truncated max {_max_or_none(lo, left)} vs pessimistic "
        f"max {_max_or_none(hi, left)}")


def dp_rightmost_path(box: BoxConfig, start_x: int, n: int) -> list:
    """The pointwise-rightmost open path from the seed row to level ``n``.

    Backtracks the reachability DP right-edge-first; at every step the two
    candidate predecessor cells must agree between the truncated and the
    pessimistic tables, otherwise the path cannot be certified.
    """
    return _raised(_certified_dp(box, start_x, n)[1])


# -- the random-walk oracle of the coalescing-Brownian baseline --------------

WALK_RESOLUTION = 48  # lattice gap units per unit of rescaled gap


def coalescing_walk_survival(delta: float, t: float) -> float:
    """Survival of two coalescing simple random walks, on the lattice.

    The walks step +-1 per unit time and merge on meeting; under diffusive
    scaling with `WALK_RESOLUTION` lattice gap units per unit of ``delta`` the
    survival probability converges to `opweb.stats.cbm_baseline`.  Start gap
    and step count are derived so the rescaled gap is exactly ``delta``; the
    gap chain is then solved exactly by `gap_walk_survival_exact`.
    """
    if delta <= 0 or t <= 0:
        raise InvalidArgumentError("delta and t must be positive")
    d = int(round(delta * WALK_RESOLUTION))
    d += d % 2
    # time is rescaled so the effective rescaled gap is exactly delta even
    # after rounding d to an even integer
    steps = int(round(t * (d / delta) ** 2))
    return gap_walk_survival_exact(d, steps)


# a walk's outcomes, by the codes that judge_walk returns
OUTCOMES = ("ok", "box_too_narrow", "dp_dead", "right_boundary_mismatch",
            "left_boundary_mismatch")


def _ladder_outcome(cfg: Config, n: int, right, left, slack: int) -> str:
    """A walk's outcome on its ladder of boxes, from one call of
    ``judge_walk`` of ``_walk.c``; ``right`` and ``left`` are int64 numpy
    rows."""
    return OUTCOMES[_native.judge_walk(cfg, n, right, left, slack)[0]]


def _judged_walks(bases, p: float, n: int, slack: int, corrupt: int,
                  scan_guard) -> list:
    """The outcomes of ``check``'s walks on a batch of sampler bases at
    ``p``, from one call of ``check_walks`` of ``_walk.c``; replica
    ``corrupt`` of the batch gets the off-by-one of ``corrupt_run``."""
    verdicts, _ = _native.check_walks(bases, p, n, slack, corrupt, scan_guard)
    return [OUTCOMES[v] for v in verdicts]


_PROBE_GUARD = 64  # the guard of the p = 0 probe's walk


def check_suite(ps, seeds_per_p: int, n: int, seed: int, *, workers: int = 1,
                scan_guard: int = DEFAULT_SCAN_GUARD, slack: int = 64,
                corrupt_run: int | None = None) -> dict:
    """Exact explore-vs-DP equivalence sweep plus the p=0 guard agreement.

    Every run demands integer equality of both boundaries.  Each judged
    walk runs with ``scan_guard``, and a tripped guard raises its
    ScanLimitExceededError; the p = 0 probe keeps a guard of its own.  The
    box follows the walk: each walk is judged on the bands of its ladder,
    and a true walk on the first of them, so a run reports
    ``box_too_narrow`` or ``dp_dead`` only when the last box, the rectangle
    ``2n + slack`` columns left of the walk's path, refuses or dies.  Each
    p's replicas are walked and judged in one ``check_walks`` call per
    range of `runner.replica_ranges`, on their bases from one
    `lattice.replica_bases` call.  ``corrupt_run`` injects an off-by-one
    into that run's explored right boundary (negative control for the
    reporting path).  The p values must be distinct: the report keeps one
    tally per p.
    """
    if len(set(ps)) != len(ps):
        raise InvalidArgumentError("check p values must be distinct")
    labels = [(p, rep) for p in ps for rep in range(seeds_per_p)]
    bases = replica_bases(seed, 0, len(labels))  # every run's sampler base
    ranges = [r for r in replica_ranges(seeds_per_p, workers) if r[1]]
    jobs = [(p, k * seeds_per_p + offset, size) for k, p in enumerate(ps)
            for offset, size in ranges]

    def judge(job):
        p, first, size = job
        corrupt = -1
        if corrupt_run is not None and first <= corrupt_run < first + size:
            corrupt = corrupt_run - first
        return _judged_walks(bases[first:first + size], p, n, slack, corrupt,
                             scan_guard)

    outcomes = [o for batch in pmap(judge, jobs, workers) for o in batch]
    per_p = {p: {"passed": 0, "total": seeds_per_p} for p in ps}
    failures = []
    for (p, rep), outcome in zip(labels, outcomes):
        if outcome == "ok":
            per_p[p]["passed"] += 1
        else:
            failures.append({"p": p, "replica": rep, "kind": outcome})
    # degenerate input, the replica after the runs: the walk to level 4 must
    # trip its guard, and the DP of the box of columns -16 to 8 and levels 0
    # to 4, seeded up to column 0, must report it dead from level 1
    probe = replica_config(seed, 0.0, len(labels))
    guard_tripped = False
    try:
        _judged_walks([probe._base], 0.0, 4, slack, -1, _PROBE_GUARD)
    except ScanLimitExceededError:
        guard_tripped = True
    dead_from = dp_right_boundary(BoxConfig(probe, -16, 8, 0, 4), 0,
                                  4).dead_from
    return {"per_p": per_p, "failures": failures,
            "p0_agreement": guard_tripped and dead_from == 1}


def gap_walk_survival_exact(d: int, steps: int) -> float:
    """Exact (transition DP) survival of the coalescing-walk gap chain.

    The gap of two independent +-1 walks moves +-2 w.p. 1/4 each, holds
    w.p. 1/2, and absorbs at 0.
    """
    if d <= 0 or d % 2 != 0:
        raise InvalidArgumentError("gap must be positive and even")
    import numpy as np  # when it runs: this module loads no numpy
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
