"""The two-stream ledger coupling, the paper's proof device, as a test
support module.

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
cluster runs the Python walk, `opweb.explore.ExplorationCluster`, on its
adapted source and so keeps its left-delta record, from which
`_replay_left` rebuilds its left boundary at every level;
`run_coupled_many` reads each cluster's switch level off the sources as it
advances the cluster level by level.

Cluster ``i`` of replica ``r`` starts on stream ``r * STREAMS_PER_REPLICA
+ i + 1``, within the streams that `opweb.lattice` gives the replica.  The
first stream is ``replica_config(seed, p, r)``, the one configuration on
which the batteries of `opweb.couple` run: the tests check those against
this coupling.

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

from dataclasses import dataclass, field

import numpy as np

from opweb.errors import DEFAULT_SCAN_GUARD, InvalidArgumentError, OpwebError
from opweb.explore import ExplorationCluster
from opweb.lattice import STREAMS_PER_REPLICA, Config, make_key_sampler


class PreconditionNotMetError(OpwebError):
    """A structural precondition of the requested check does not hold."""


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
    samplers = [make_key_sampler(
        Config(seed, p, replica * STREAMS_PER_REPLICA + i + 1))
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

    Cluster ``i`` starts on stream ``replica * STREAMS_PER_REPLICA + i + 1``
    and runs through the horizon before cluster ``i + 1`` starts; it
    switches to the ledger at its first query of an edge an earlier cluster
    examined, and
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
