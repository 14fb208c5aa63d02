"""Coalescing exploration clusters: the batteries on one configuration,
and the two-stream ledger coupling that is the paper's proof device.

Ledger coupling (`run_coupled_many`): cluster 1 explores its private stream
and records every examined edge in a ledger.  Each later cluster explores
its own private stream until the first query that hits the ledger; from
that moment on it reads previously realized statuses from the ledger and
draws fresh edges from the first stream.  Every edge therefore receives
exactly one status, the choice of source is adapted to the revealed
history, and the realized statuses form one consistent percolation
configuration shared by all clusters.  This is how the paper shows that
clusters evolve independently until they meet; `check_coalescence_structure`
and the tests of the marginal and joint laws run on it.  Every ledger
cluster runs the Python walk on its adapted source and so keeps its
left-delta record, from which `_replay_left` rebuilds its left boundary at
every level; `run_coupled_many` reads each cluster's switch level off the
sources as it advances the cluster level by level.

Batteries (`family_eta`, `family_etas`, `pair_merges`): since the
ledger's joint law is the law of one configuration, and B1, B2 and the
survival curve only estimate probabilities, every cluster of a replica is
built from one ``replica_config(seed, p, replica)``, the ledger's first
stream, and advances on its own with no ledger.  On one configuration the
sites reachable at level ``n`` from the half-line ``(-inf, x]`` grow with
``x``, so the right boundary ``r_x(n)`` is non-decreasing in ``x``, and
two equal-time boundaries that meet stay equal.  The batteries keep no
cluster: each reads the chain of `opweb._native.chain`, which walks the
starts of a family from the left, each up to the first level where its r
is at or left of its neighbour's.  The distinct values of a family at its
level are one plus the starts that never stop, and for a pair that first
level is the survival curve's ``kappa_rr``.  `family_eta` counts them on
one configuration; `family_etas` (B2) and `pair_merges` (the survival
curve, B1 and the P(eta >= 2) side of B2) walk a range of replicas in one
native call.

Coalescence bookkeeping for a pair started left (cluster ``L``) and right
(cluster ``R``) at the same time:

* ``kappa_rr``: first level where ``r_R <= r_L`` (boundaries merge there and
  stay equal);
* ``kappa_rl``: first level ``n`` whose left boundary of ``R`` dips to or
  below ``r_L`` somewhere on ``[base, n]``;
* ``kappa_gamma_gamma``: first level where the horizon approximations of the
  rightmost infinite paths merge.

For pairs started at different times the same statements are only meaningful
on one of two one-sided ordering events; runs satisfying neither are
retained but flagged unstructured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, PreconditionNotMetError
from .explore import DEFAULT_SCAN_GUARD, ExplorationCluster
from .lattice import Config, make_key_sampler, replica_bases, replica_config
from .oracle import cbm_baseline
from .runner import pmap, replica_ranges

DEFAULT_GAMMA_MARGIN = 500


@dataclass(frozen=True)
class CoalescenceTimes:
    kappa_rl: int | None
    kappa_rr: int | None
    kappa_gamma_gamma: int | None
    horizon: int
    gamma_provisional: bool = False


@dataclass(eq=False)
class CoupledRun:
    starts: tuple
    horizon: int
    r: list = field(repr=False)  # per cluster, list of ints from its start
    gamma: list = field(repr=False)  # per cluster, np.ndarray
    left_deltas: list = field(repr=False)  # per cluster, the walk's record
    switch_levels: list  # per cluster, first level on the ledger, or None
    kappas: dict  # (i, j) -> CoalescenceTimes
    orientations: dict  # (i, j) -> 'equal_time'|'first_left'|'second_left'|'unstructured'


@dataclass(frozen=True)
class ClauseResult:
    passed: bool
    first_violation: tuple | None = None
    note: str = ""


@dataclass(frozen=True)
class CoalescenceReport:
    resolved: bool
    orientation: str
    kappa: CoalescenceTimes
    boundary_merge: ClauseResult
    left_boundary_merge: ClauseResult
    gamma_merge: ClauseResult

    @property
    def all_passed(self) -> bool:
        return (self.boundary_merge.passed and self.left_boundary_merge.passed
                and self.gamma_merge.passed)


def _coupled_sources(k: int, seed: int, p: float, replica: int):
    """One adapted edge source per cluster (index 0 first), and the flags
    ``switched``: entry ``i`` turns True at cluster ``i``'s first query of
    an edge already in the ledger.  Cluster 0 writes the ledger first and a
    walk queries each edge once, so its flag stays False."""
    ledger: dict[int, bool] = {}
    samplers = [make_key_sampler(replica_config(seed, p, replica, i))
                for i in range(k)]
    first = samplers[0]
    switched = [False] * k

    def make(i):
        own = samplers[i]

        def source(key):
            v = ledger.get(key)
            if v is None:
                v = ledger[key] = (first if switched[i] else own)(key)
            else:
                switched[i] = True
            return v

        return source

    return switched, [make(i) for i in range(k)]


def _first_leq(a, b, base, ta, tb):
    """First absolute level n >= base with a(n) <= b(n); arrays indexed from
    their start times."""
    lo_a, lo_b = base - ta, base - tb
    m = min(len(a) - lo_a, len(b) - lo_b)
    if m <= 0:
        return None
    seg_a = np.asarray(a[lo_a:lo_a + m])
    seg_b = np.asarray(b[lo_b:lo_b + m])
    idx = np.flatnonzero(seg_a <= seg_b)
    return None if len(idx) == 0 else int(base + idx[0])


def _replay_left(x0, deltas):
    """Replay a walk's left-delta record from its start column ``x0``.

    Yields ``(floor, L)`` per level from the start: ``L`` is the left
    boundary at that level, indexed from the start time, and ``floor`` the
    first index that level's advance rewrote (0 at the start).  ``L`` is
    one list, rewritten in place between yields.
    """
    L = [x0]
    yield 0, L
    for floor, seg in deltas:
        L[floor:] = seg
        yield floor, L


def _replay_dip_level(x0, t0, deltas, r_other, t_other, base):
    """First level n with the replayed left boundary dipping to or below the
    other cluster's right boundary somewhere on [base, n]."""
    for m, (floor, L) in enumerate(_replay_left(x0, deltas)):
        for i in range(max(floor, base - t0), m + 1):
            if L[i] <= r_other[t0 + i - t_other]:
                return t0 + m
    return None


def _orient_pair(run: CoupledRun, i: int, j: int) -> str:
    zi, zj = run.starts[i], run.starts[j]
    if zi.t == zj.t:
        return "equal_time"
    base = max(zi.t, zj.t)
    gi, gj = run.gamma[i], run.gamma[j]
    ri, rj = run.r[i], run.r[j]
    if ri[base - zi.t] <= gj[base - zj.t]:
        return "first_left"
    if rj[base - zj.t] <= gi[base - zi.t]:
        return "second_left"
    return "unstructured"


def _pair_kappas(run: CoupledRun, i: int, j: int,
                 orientation: str) -> CoalescenceTimes:
    zi, zj = run.starts[i], run.starts[j]
    base = max(zi.t, zj.t)
    if orientation in ("equal_time", "first_left"):
        left, right = i, j
    elif orientation == "second_left":
        left, right = j, i
    else:
        return CoalescenceTimes(None, None, None, run.horizon)
    tl, tr = run.starts[left].t, run.starts[right].t
    r_l, r_r = run.r[left], run.r[right]
    kappa_rr = _first_leq(r_r, r_l, base, tr, tl)
    kappa_gg = _first_leq(run.gamma[right], run.gamma[left], base, tr, tl)
    provisional = (kappa_gg is not None
                   and kappa_gg > run.horizon - DEFAULT_GAMMA_MARGIN)
    kappa_rl = _replay_dip_level(run.starts[right].x, tr,
                                 run.left_deltas[right], r_l, tl, base)
    return CoalescenceTimes(kappa_rl, kappa_rr, kappa_gg, run.horizon,
                            provisional)


def check_coalescence_structure(run: CoupledRun) -> CoalescenceReport:
    """Verify the coalescence clauses on clusters 0 and 1 of a coupled run.

    Clause 1: the boundary-merge level equals the left-dip level and the two
    right boundaries agree from there on.  Clause 2: the left boundaries of
    the two clusters agree on ``[kappa_rr, n]`` at every later level.
    Clause 3: the gamma approximations merge no later than the boundaries
    and stay together.  Unequal-time runs satisfying neither one-sided
    ordering event raise PreconditionNotMetError.
    """
    orientation = run.orientations[(0, 1)]
    if orientation == "unstructured":
        raise PreconditionNotMetError(
            "neither one-sided ordering event holds; equal-time clauses do "
            "not apply")
    kappa = run.kappas[(0, 1)]
    left, right = ((0, 1) if orientation in ("equal_time", "first_left")
                   else (1, 0))
    if kappa.kappa_rr is None:
        vacuous = ClauseResult(True, note="coalescence unresolved at horizon")
        return CoalescenceReport(False, orientation, kappa, vacuous, vacuous,
                                 vacuous)
    tl, tr = run.starts[left].t, run.starts[right].t
    r_l = np.asarray(run.r[left], dtype=np.int64)
    r_r = np.asarray(run.r[right], dtype=np.int64)
    krr = kappa.kappa_rr

    # clause 1: same merge level both ways, boundaries identical after
    c1_pass = kappa.kappa_rl == krr
    c1_viol = None if c1_pass else ("kappa_rl", kappa.kappa_rl, krr)
    seg_l = r_l[krr - tl:]
    seg_r = r_r[krr - tr:]
    if c1_pass:
        neq = np.flatnonzero(seg_l != seg_r)
        if len(neq):
            c1_pass = False
            c1_viol = ("r", int(krr + neq[0]))
    clause1 = ClauseResult(c1_pass, c1_viol)

    # clause 2: left boundaries agree on [kappa_rr, n] for every n
    clause2 = _check_left_merge(run, left, right, krr)

    # clause 3: gamma merge characterization, ordering, equality after
    g_l, g_r = run.gamma[left], run.gamma[right]
    kgg = kappa.kappa_gamma_gamma
    base = max(tl, tr)
    alt = _first_leq(g_r, r_l, base, tr, tl)
    c3_pass = kgg is not None and kgg <= krr and alt == kgg
    c3_viol = None if c3_pass else ("kappa_gg", kgg, "vs_r", alt, "krr", krr)
    if c3_pass:
        neq = np.flatnonzero(g_l[kgg - tl:] != g_r[kgg - tr:])
        if len(neq):
            c3_pass = False
            c3_viol = ("gamma", int(kgg + neq[0]))
    clause3 = ClauseResult(c3_pass, c3_viol)
    return CoalescenceReport(True, orientation, kappa, clause1, clause2, clause3)


def _check_left_merge(run: CoupledRun, left: int, right: int,
                      krr: int) -> ClauseResult:
    """Clause 2.  After the first level, only the indices from the lower of
    the two rewrite floors up can differ from the level before."""
    tl, tr = run.starts[left].t, run.starts[right].t
    replays = {k: _replay_left(run.starts[k].x, run.left_deltas[k])
               for k in (left, right)}
    L, floors = {}, {}
    for n in range(min(tl, tr), run.horizon + 1):
        for k, t0 in ((left, tl), (right, tr)):
            if n >= t0:
                floor, L[k] = next(replays[k])
                floors[k] = t0 + floor
        if n < krr:
            continue
        lo = krr if n == krr else max(krr, min(floors.values()))
        a = L[left][lo - tl:n - tl + 1]
        b = L[right][lo - tr:n - tr + 1]
        if a != b:
            for off, (va, vb) in enumerate(zip(a, b)):
                if va != vb:
                    return ClauseResult(False, ("l", n, lo + off))
    return ClauseResult(True)


def run_coupled_many(starts, horizon: int, *, p: float, seed: int,
                     replica: int = 0,
                     scan_guard: int = DEFAULT_SCAN_GUARD) -> CoupledRun:
    """Couple clusters per the two-stream ledger; pairwise times recorded.

    Cluster ``i`` starts on ``replica_config(seed, p, replica, i)`` and runs
    through the horizon before cluster ``i + 1`` starts; it switches to the
    ledger at its first query of an edge an earlier cluster examined, and
    ``switch_levels[i]`` is the level whose advance made that query (None
    for cluster 0 and for a cluster that never meets the ledger).  Every
    cluster records its left deltas, from which ``kappa_rl`` and clause 2
    of `check_coalescence_structure` replay its left boundary.  Coalescence
    levels beyond the horizon are reported as None (not an error).
    """
    starts = list(starts)
    if len(starts) < 2:
        raise InvalidArgumentError("need at least two starts")
    if any((starts[a].t, starts[a].x) > (starts[a + 1].t, starts[a + 1].x)
           for a in range(len(starts) - 1)):
        raise InvalidArgumentError("starts must be ordered by (t, x)")
    if horizon < max(s.t for s in starts):
        raise InvalidArgumentError("horizon precedes a start time")
    k = len(starts)
    switched, sources = _coupled_sources(k, seed, p, replica)
    clusters, switch_levels = [], [None] * k
    for i, z in enumerate(starts):
        c = ExplorationCluster(z, source=sources[i], scan_guard=scan_guard)
        while c.level < horizon:
            c.advance_level()
            if switch_levels[i] is None and switched[i]:
                switch_levels[i] = c.level
        clusters.append(c)
    run = CoupledRun(
        starts=tuple(starts), horizon=horizon,
        r=[c.right_values.tolist() for c in clusters],
        gamma=[c.left_values for c in clusters],
        left_deltas=[c.left_deltas for c in clusters],
        switch_levels=switch_levels, kappas={}, orientations={},
    )
    for a in range(k):
        for b in range(a + 1, k):
            orientation = _orient_pair(run, a, b)
            run.orientations[(a, b)] = orientation
            run.kappas[(a, b)] = _pair_kappas(run, a, b, orientation)
    return run


# -- shared-configuration batteries ------------------------------------------

def _check_family(xs, t0: int, level: int, cap) -> None:
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise InvalidArgumentError("start columns must be strictly increasing")
    if level < t0:
        raise InvalidArgumentError("level precedes start time")
    if cap is not None and cap < 1:
        raise InvalidArgumentError("cap must be at least 1")


def _etas(stops) -> list:
    """eta of each row of the chain's stops: one plus the walks that reach
    the level without stopping."""
    return [1 + row.count(-1) for row in stops.tolist()]


def family_eta(start_xs, t0: int, level: int, cfg: Config, *,
               cap: int | None = None,
               scan_guard: int = DEFAULT_SCAN_GUARD) -> int:
    """Distinct values of ``r_x(level)`` over an equal-time family on ``cfg``.

    One chain of `opweb._native.chain`: a start that meets its left
    neighbour's boundary by ``level`` shares its value there, and one that
    does not adds one.  With ``cap >= 1`` the chain ends once the count
    reaches ``cap``, and ``min(eta, cap)`` is returned.
    """
    xs = tuple(start_xs)
    _check_family(xs, t0, level, cap)
    from . import _native  # may build the library: not at import
    stops = _native.chain(xs, t0, level, cfg.p, [cfg._base], cap, scan_guard)
    return _etas(stops)[0]


def _chain_worker(args):
    xs, level, p, seed, first, count, cap, scan_guard = args
    from . import _native  # may build the library: not at import
    return _native.chain(xs, 0, level, p, replica_bases(seed, first, count),
                         cap, scan_guard)


def _chains(xs, level: int, p: float, seed: int, first: int, count: int,
            cap, workers: int, scan_guard) -> np.ndarray:
    """The chain's stops of the family ``xs`` at time 0 on replicas
    ``first, ..., first + count - 1``, one row per replica.  The replicas
    are walked in the contiguous ranges of `runner.replica_ranges`, one
    native call each, and joined in order, so the array is the same for any
    worker count.  A tripped guard raises the error of the first replica,
    in order, whose chain trips in its range."""
    xs = tuple(xs)
    _check_family(xs, 0, level, cap)
    jobs = [(xs, level, p, seed, first + offset, size, cap, scan_guard)
            for offset, size in replica_ranges(count, workers)]
    return np.concatenate(pmap(_chain_worker, jobs, workers))


def family_etas(start_xs, level: int, p: float, *, seed: int, first: int,
                count: int, cap: int | None = None, workers: int = 1,
                scan_guard: int = DEFAULT_SCAN_GUARD) -> list:
    """`family_eta` of the family from ``(x, 0)``, x in ``start_xs``, on
    ``replica_config(seed, p, first + k)`` as entry ``k``, for the
    ``count`` replicas from ``first``, walked as `pair_merges` walks them."""
    return _etas(_chains(start_xs, level, p, seed, first, count, cap,
                         workers, scan_guard))


def pair_merges(xl: int, xr: int, level: int, p: float, *, seed: int,
                first: int, count: int, workers: int = 1,
                scan_guard: int = DEFAULT_SCAN_GUARD) -> np.ndarray:
    """Merge levels of the equal-time pair from ``(xl, 0)`` and ``(xr, 0)``
    on replicas ``first, ..., first + count - 1``.

    Entry ``k`` is the first level ``n <= level`` with ``r_R(n) <= r_L(n)``
    on ``replica_config(seed, p, first + k)``, or -1 where the pair has not
    merged by ``level``: the right walk's stop level in the chain of the
    pair.  The replicas are walked in contiguous ranges, one native call
    each, and joined in order, so the array is the same for any worker
    count.  A tripped guard raises the error of the first replica, in
    order, whose walk trips in its range.
    """
    return _chains((xl, xr), level, p, seed, first, count, None, workers,
                   scan_guard)[:, 0]


def coalescence_survival_curve(delta_lattice: int, p: float, eps: float, t_grid,
                               replicas: int, *, seed: int, sigma_hat: float,
                               workers: int = 1,
                               scan_guard: int = DEFAULT_SCAN_GUARD,
                               replica_offset: int = 0):
    """Empirical P(eps * kappa_rr > t) against the erf baseline, per t.

    Starts are ``(0, 0)`` and ``(delta_lattice, 0)``; the rescaled gap is
    ``delta_lattice * sqrt(eps) / sigma_hat``.  Replica ``k`` runs on
    ``replica_config(seed, p, replica_offset + k)``, and its ``kappa_rr``
    comes from `pair_merges`, which walks the replicas in ranges, one native
    call each.  Runs unresolved at the horizon count as survivors
    (right-censoring, conservative).
    """
    if delta_lattice <= 0 or delta_lattice % 2 != 0:
        raise InvalidArgumentError("lattice gap must be positive and even")
    t_grid = sorted(t_grid)
    horizon = int(math.ceil(max(t_grid) / eps))
    kappas = pair_merges(0, delta_lattice, horizon, p, seed=seed,
                         first=replica_offset, count=replicas,
                         workers=workers, scan_guard=scan_guard)
    censored = int((kappas < 0).sum())
    delta_eff = delta_lattice * math.sqrt(eps) / sigma_hat
    rows = []
    for t in t_grid:
        surv = int(((kappas < 0) | (kappas > t / eps)).sum())
        rows.append({
            "eps": eps, "t": t,
            "empirical_survival": surv / replicas,
            "baseline_erf": cbm_baseline(delta_eff, t),
            "n_replicas": replicas, "n_censored": censored,
        })
    return rows
