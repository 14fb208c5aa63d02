"""Multi-cluster couplings on independent streams and coalescence times.

Construction: cluster 1 explores its private stream and records every
examined edge in a ledger.  Each later cluster explores its own private
stream until the first query that hits the ledger; from that moment on it
reads previously realized statuses from the ledger and draws fresh edges
from the first stream.  Every edge therefore receives exactly one status,
the choice of source is adapted to the revealed history, and the realized
statuses form one consistent percolation configuration shared by all
clusters.

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
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, PreconditionNotMetError
from .explore import ExplorationCluster
from .lattice import Config, LatticeSite, make_key_sampler
from .oracle import cbm_baseline
from .runner import pmap

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
    p: float
    seed: int
    stream_base: int
    r: list = field(repr=False)  # per cluster, list of ints from its start
    gamma: list = field(repr=False)  # per cluster, np.ndarray or None
    left_deltas: list = field(repr=False)  # per cluster, list or None
    switch_levels: list = None
    scan_offsets: list = None
    kappas: dict = None  # (i, j) -> CoalescenceTimes
    orientations: dict = None  # (i, j) -> 'equal_time'|'first_left'|'second_left'|'unstructured'


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


def _coupled_sources(k: int, seed: int, p: float, stream_base: int):
    """Ledger plus one adapted edge source per cluster (index 0 first).

    ``states[i]["cluster"]`` must be set to a weak reference to cluster
    ``i``: the cluster holds its source, so a strong one would form a
    reference cycle that only the cycle collector could free.
    """
    ledger: dict[int, bool] = {}
    samplers = [make_key_sampler(Config(seed, p, stream_base + i + 1))
                for i in range(k)]
    first = samplers[0]
    states = [{"switched": i == 0, "iota": None, "cluster": None}
              for i in range(k)]

    def make(i):
        own = samplers[i]
        state = states[i]

        def source(key):
            if state["switched"]:
                v = ledger.get(key)
                if v is None:
                    v = first(key)
                    ledger[key] = v
                return v
            v = ledger.get(key)
            if v is not None:
                state["switched"] = True
                state["iota"] = state["cluster"]().level + 1
                return v
            v = own(key)
            ledger[key] = v
            return v

        return source

    return ledger, states, [make(i) for i in range(k)]


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


def _replay_dip_level(x0, t0, deltas, r_other, t_other, base, max_level):
    """First level n with the replayed left boundary dipping to or below the
    other cluster's right boundary somewhere on [base, n]."""
    L = [x0]
    if t0 >= base and x0 <= r_other[t0 - t_other]:
        return t0
    for m, (floor, seg) in enumerate(deltas, start=1):
        n = t0 + m
        if n > max_level:
            break
        L[floor:] = seg
        lo = max(floor, base - t0)
        for i in range(lo, m + 1):
            if L[i] <= r_other[t0 + i - t_other]:
                return n
    return None


def run_coupled_pair(z1: LatticeSite, z2: LatticeSite, horizon: int, *,
                     p: float, seed: int, stream_base: int = 0,
                     record_left_deltas: bool = False,
                     stop_second_at_coalescence: bool = False,
                     gamma_margin: int = DEFAULT_GAMMA_MARGIN,
                     scan_guard: int = 10_000) -> CoupledRun:
    """Couple two exploration clusters per the two-stream construction.

    Cluster 1 runs on stream ``stream_base + 1`` through the horizon first;
    cluster 2 runs on ``stream_base + 2`` until its exploration touches an
    edge cluster 1 examined, then switches over.  Coalescence levels beyond
    the horizon are reported as None (not an error).
    """
    if horizon < max(z1.t, z2.t):
        raise InvalidArgumentError("horizon precedes a start time")
    equal_time = z1.t == z2.t
    if equal_time and z1.x > z2.x:
        raise InvalidArgumentError("equal-time starts must be ordered left-right")
    if stop_second_at_coalescence and not equal_time:
        raise InvalidArgumentError("early stop requires equal start times")
    if stop_second_at_coalescence and record_left_deltas:
        raise InvalidArgumentError("cannot record full deltas on a stopped run")
    rec = record_left_deltas or not equal_time
    ledger, states, sources = _coupled_sources(2, seed, p, stream_base)

    c1 = ExplorationCluster(z1, cfg=None, source=sources[0],
                            scan_guard=scan_guard, record_left_deltas=rec)
    states[0]["cluster"] = weakref.ref(c1)
    c1.advance_to(horizon)
    c2 = ExplorationCluster(z2, cfg=None, source=sources[1],
                            scan_guard=scan_guard, record_left_deltas=rec)
    states[1]["cluster"] = weakref.ref(c2)

    base = max(z1.t, z2.t)
    r1 = c1.right_values
    kappa_rr = None
    if stop_second_at_coalescence:
        if z2.x <= r1[base - z1.t]:
            kappa_rr = base
        while c2.level < horizon and kappa_rr is None:
            c2.advance_level()
            if c2.right_values[-1] <= r1[c2.level - z1.t]:
                kappa_rr = c2.level
        gammas = [np.asarray(c1.left_values, dtype=np.int64), None]
    else:
        c2.advance_to(horizon)
        gammas = [np.asarray(c1.left_values, dtype=np.int64),
                  np.asarray(c2.left_values, dtype=np.int64)]

    run = CoupledRun(
        starts=(z1, z2), horizon=horizon, p=p, seed=seed,
        stream_base=stream_base,
        r=[list(c1.right_values), list(c2.right_values)],
        gamma=gammas,
        left_deltas=[c1.left_deltas, c2.left_deltas] if rec else [None, None],
        switch_levels=[states[0]["iota"], states[1]["iota"]],
        scan_offsets=[c1.scan_offset, c2.scan_offset],
        kappas={}, orientations={},
    )
    orientation = _orient_pair(run, 0, 1)
    run.orientations[(0, 1)] = orientation
    run.kappas[(0, 1)] = _pair_kappas(run, 0, 1, orientation, gamma_margin,
                                      kappa_rr_early=kappa_rr)
    return run


def _orient_pair(run: CoupledRun, i: int, j: int) -> str:
    zi, zj = run.starts[i], run.starts[j]
    if zi.t == zj.t:
        return "equal_time"
    base = max(zi.t, zj.t)
    gi, gj = run.gamma[i], run.gamma[j]
    ri, rj = run.r[i], run.r[j]
    if gi is None or gj is None:
        raise InvalidArgumentError("unequal-time orientation needs gamma data")
    if ri[base - zi.t] <= gj[base - zj.t]:
        return "first_left"
    if rj[base - zj.t] <= gi[base - zi.t]:
        return "second_left"
    return "unstructured"


def _pair_kappas(run: CoupledRun, i: int, j: int, orientation: str,
                 gamma_margin: int, kappa_rr_early=None) -> CoalescenceTimes:
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
    if kappa_rr_early is not None:
        kappa_rr = kappa_rr_early
    else:
        kappa_rr = _first_leq(r_r, r_l, base, tr, tl)
    g_l, g_r = run.gamma[left], run.gamma[right]
    kappa_gg = None
    provisional = False
    if g_l is not None and g_r is not None:
        kappa_gg = _first_leq(g_r, g_l, base, tr, tl)
        provisional = (kappa_gg is not None
                       and kappa_gg > run.horizon - gamma_margin)
    kappa_rl = None
    if run.left_deltas[right] is not None:
        kappa_rl = _replay_dip_level(
            run.starts[right].x, tr, run.left_deltas[right],
            run.r[left], tl, base, run.horizon)
    return CoalescenceTimes(kappa_rl, kappa_rr, kappa_gg, run.horizon,
                            provisional)


def check_coalescence_structure(run: CoupledRun, pair=(0, 1)) -> CoalescenceReport:
    """Verify the coalescence clauses on a fully recorded coupled run.

    Clause 1: the boundary-merge level equals the left-dip level and the two
    right boundaries agree from there on.  Clause 2: the left boundaries of
    the two clusters agree on ``[kappa_rr, n]`` at every later level.
    Clause 3: the gamma approximations merge no later than the boundaries
    and stay together.  Unequal-time runs satisfying neither one-sided
    ordering event raise PreconditionNotMetError.
    """
    i, j = pair
    orientation = run.orientations[(i, j)]
    if orientation == "unstructured":
        raise PreconditionNotMetError(
            "neither one-sided ordering event holds; equal-time clauses do "
            "not apply")
    kappa = run.kappas[(i, j)]
    if run.gamma[i] is None or run.gamma[j] is None or run.left_deltas[i] is None:
        raise InvalidArgumentError("structure checks need a full recorded run")
    left, right = (i, j) if orientation in ("equal_time", "first_left") else (j, i)
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
    tl, tr = run.starts[left].t, run.starts[right].t
    L = {left: [run.starts[left].x], right: [run.starts[right].x]}
    deltas = {left: run.left_deltas[left], right: run.left_deltas[right]}
    pos = {left: 0, right: 0}
    checked_once = False
    for n in range(min(tl, tr) + 1, run.horizon + 1):
        floors = {}
        for k in (left, right):
            t0 = tl if k == left else tr
            if n <= t0:
                continue
            floor, seg = deltas[k][pos[k]]
            pos[k] += 1
            lst = L[k]
            del lst[floor:]
            lst.extend(seg)
            floors[k] = t0 + floor
        if n < krr:
            continue
        if not checked_once:
            lo = krr
            checked_once = True
        else:
            lo = max(krr, min(floors.values())) if floors else krr
        a = L[left][lo - tl:n - tl + 1]
        b = L[right][lo - tr:n - tr + 1]
        if a != b:
            for off, (va, vb) in enumerate(zip(a, b)):
                if va != vb:
                    return ClauseResult(False, ("l", n, lo + off))
    return ClauseResult(True)


def run_coupled_many(starts, horizon: int, *, p: float, seed: int,
                     stream_base: int = 0, record_left_deltas: bool = False,
                     gamma_margin: int = DEFAULT_GAMMA_MARGIN,
                     scan_guard: int = 10_000) -> CoupledRun:
    """Inductive coupling of several clusters; pairwise times recorded."""
    starts = [s for s in starts]
    if len(starts) < 2:
        raise InvalidArgumentError("need at least two starts")
    if any((starts[a].t, starts[a].x) > (starts[a + 1].t, starts[a + 1].x)
           for a in range(len(starts) - 1)):
        raise InvalidArgumentError("starts must be ordered by (t, x)")
    if horizon < max(s.t for s in starts):
        raise InvalidArgumentError("horizon precedes a start time")
    k = len(starts)
    ledger, states, sources = _coupled_sources(k, seed, p, stream_base)
    clusters = []
    for i, z in enumerate(starts):
        c = ExplorationCluster(z, cfg=None, source=sources[i],
                               scan_guard=scan_guard,
                               record_left_deltas=record_left_deltas)
        states[i]["cluster"] = weakref.ref(c)
        clusters.append(c)
        c.advance_to(horizon)
    run = CoupledRun(
        starts=tuple(starts), horizon=horizon, p=p, seed=seed,
        stream_base=stream_base,
        r=[list(c.right_values) for c in clusters],
        gamma=[np.asarray(c.left_values, dtype=np.int64) for c in clusters],
        left_deltas=[c.left_deltas for c in clusters],
        switch_levels=[st["iota"] for st in states],
        scan_offsets=[c.scan_offset for c in clusters],
        kappas={}, orientations={},
    )
    for a in range(k):
        for b in range(a + 1, k):
            orientation = _orient_pair(run, a, b)
            run.orientations[(a, b)] = orientation
            run.kappas[(a, b)] = _pair_kappas(run, a, b, orientation,
                                              gamma_margin)
    return run


# -- lockstep family with merge-on-meet (battery workhorse) -----------------

@dataclass(frozen=True)
class FamilyRun:
    """Right-boundary values of an equal-time family at one level."""

    start_xs: tuple
    t0: int
    level: int
    values: tuple  # r_i(level) for every original start
    n_active: int

    def eta(self) -> int:
        return len(set(self.values))


def run_right_family(start_xs, t0: int, level: int, *, p: float, seed: int,
                     stream_base: int = 0, scan_guard: int = 10_000) -> FamilyRun:
    """Advance an ordered equal-time family, collapsing merged neighbors.

    Once a neighbor pair's right boundaries meet they are equal forever, so
    the right cluster is dropped and aliased to its representative; the
    family's distinct-value count at ``level`` equals the number of
    survivors.
    """
    xs = list(start_xs)
    if any(xs[a] >= xs[a + 1] for a in range(len(xs) - 1)):
        raise InvalidArgumentError("start columns must be strictly increasing")
    if level < t0:
        raise InvalidArgumentError("level precedes start time")
    k = len(xs)
    ledger, states, sources = _coupled_sources(k, seed, p, stream_base)
    clusters = []
    for i, x in enumerate(xs):
        c = ExplorationCluster(LatticeSite(x, t0), cfg=None, source=sources[i],
                               scan_guard=scan_guard)
        states[i]["cluster"] = weakref.ref(c)
        clusters.append(c)
    rep = list(range(k))
    active = list(range(k))
    for _ in range(t0 + 1, level + 1):
        for i in active:
            clusters[i].advance_level()
        kept = [active[0]]
        for j in active[1:]:
            i = kept[-1]
            if clusters[j].right_values[-1] <= clusters[i].right_values[-1]:
                rep[j] = i
            else:
                kept.append(j)
        active = kept
    values = []
    for i in range(k):
        root = i
        while rep[root] != root:
            root = rep[root]
        values.append(clusters[root].right_values[-1])
    return FamilyRun(tuple(xs), t0, level, tuple(values), len(active))


def _survival_worker(args):
    gap, horizon, p, seed, stream_base, scan_guard = args
    run = run_coupled_pair(LatticeSite(0, 0), LatticeSite(gap, 0), horizon,
                           p=p, seed=seed, stream_base=stream_base,
                           stop_second_at_coalescence=True,
                           scan_guard=scan_guard)
    krr = run.kappas[(0, 1)].kappa_rr
    return -1 if krr is None else krr


def coalescence_survival_curve(delta_lattice: int, p: float, eps_list, t_grid,
                               replicas: int, *, seed: int, sigma_hat: float,
                               workers: int = 1, scan_guard: int = 10_000,
                               stream_stride: int = 1024,
                               replica_offset: int = 0):
    """Empirical P(eps * kappa_rr > t) against the erf baseline.

    Starts are ``(0, 0)`` and ``(delta_lattice, 0)``; the rescaled gap is
    ``delta_lattice * sqrt(eps) / sigma_hat``.  Runs unresolved at the
    horizon count as survivors (right-censoring, conservative).
    """
    if delta_lattice <= 0 or delta_lattice % 2 != 0:
        raise InvalidArgumentError("lattice gap must be positive and even")
    t_grid = sorted(t_grid)
    rows = []
    for ie, eps in enumerate(eps_list):
        horizon = int(math.ceil(max(t_grid) / eps))
        jobs = [(delta_lattice, horizon, p, seed,
                 (replica_offset + ie * replicas + rep) * stream_stride,
                 scan_guard)
                for rep in range(replicas)]
        kappas = np.array(pmap(_survival_worker, jobs, workers), dtype=np.int64)
        censored = int((kappas < 0).sum())
        delta_eff = delta_lattice * math.sqrt(eps) / sigma_hat
        for t in t_grid:
            cut = t / eps
            surv = int(((kappas < 0) | (kappas > cut)).sum())
            rows.append({
                "eps": eps, "t": t,
                "empirical_survival": surv / replicas,
                "baseline_erf": cbm_baseline(delta_eff, t),
                "n_replicas": replicas, "n_censored": censored,
            })
    return rows
