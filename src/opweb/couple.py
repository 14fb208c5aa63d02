"""Coalescing exploration clusters: the batteries on one configuration.

The paper couples clusters through a two-stream ledger, on which they
evolve independently until they meet; its joint law is the law of one
configuration (``tests/_ledger.py`` builds it, and the tests check the
batteries against it).  B1, B2 and the survival curve only estimate
probabilities, so every cluster of a replica is built from one
``replica_config(seed, p, replica)`` and advances on its own.  On one
configuration the sites reachable at level ``n`` from the half-line
``(-inf, x]`` grow with ``x``, so the right boundary ``r_x(n)`` is
non-decreasing in ``x``, and two equal-time boundaries that meet stay
equal.

The batteries keep no cluster: each reads the chain of
`opweb._native.chain`, which walks the starts of a family from the left,
each up to the first level where its r is at or left of its neighbour's.
The distinct values of a family at its level are one plus the starts that
never stop, and for a pair that first level is the survival curve's
``kappa_rr``, the first level where ``r_R <= r_L``.  `family_eta` counts
them on one configuration; `family_etas` (B2) and `pair_merges` (the
survival curve, B1 and the P(eta >= 2) side of B2) walk a range of
replicas in one native call.

The batteries live here too: `coalescence_survival_curve`, `b1_battery`
and `b2_fkg_check` (with its `FkgReport`) count on those stop levels and
set them against `opweb.stats.cbm_baseline`.  The path-space metric that
the batteries approximate is `opweb.metrics`.  Nothing here imports
numpy: the stop levels are lists of ints, and the counts and baselines
plain floats, so the walk commands run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DEFAULT_SCAN_GUARD, InvalidArgumentError
from .lattice import Config, replica_bases
from .runner import pmap, replica_ranges
from .stats import Z95, cbm_baseline, wilson_interval


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
    return [1 + row.count(-1) for row in stops]


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


def _chains(xs, level: int, p: float, seed: int, first: int, count: int,
            cap, workers: int, scan_guard) -> list:
    """The chain's stops of the family ``xs`` at time 0 on replicas
    ``first, ..., first + count - 1``, one row per replica.  The replicas
    are walked in the contiguous ranges of `runner.replica_ranges`, one
    native call each, and joined in order, so the rows are the same for
    any worker count.  A tripped guard raises the error of the first
    replica, in order, whose chain trips in its range."""
    xs = tuple(xs)
    _check_family(xs, 0, level, cap)
    from . import _native  # may build the library: not at import

    def walk(piece):
        offset, size = piece
        return _native.chain(xs, 0, level, p,
                             replica_bases(seed, first + offset, size), cap,
                             scan_guard)
    return [row for rows in pmap(walk, replica_ranges(count, workers), workers)
            for row in rows]


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
                scan_guard: int = DEFAULT_SCAN_GUARD) -> list:
    """Merge levels of the equal-time pair from ``(xl, 0)`` and ``(xr, 0)``
    on replicas ``first, ..., first + count - 1``, as a list of ints.

    Entry ``k`` is the first level ``n <= level`` with ``r_R(n) <= r_L(n)``
    on ``replica_config(seed, p, first + k)``, or -1 where the pair has not
    merged by ``level``: the right walk's stop level in the chain of the
    pair.  The replicas are walked in contiguous ranges, one native call
    each, and joined in order, so the list is the same for any worker
    count.  A tripped guard raises the error of the first replica, in
    order, whose walk trips in its range.
    """
    return [row[0] for row in _chains((xl, xr), level, p, seed, first,
                                      count, None, workers, scan_guard)]


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
    censored = kappas.count(-1)
    delta_eff = delta_lattice * math.sqrt(eps) / sigma_hat
    rows = []
    for t in t_grid:
        surv = sum(k < 0 or k > t / eps for k in kappas)
        rows.append({
            "eps": eps, "t": t,
            "empirical_survival": surv / replicas,
            "baseline_erf": cbm_baseline(delta_eff, t),
            "n_replicas": replicas, "n_censored": censored,
        })
    return rows


# -- B1 and B2 ---------------------------------------------------------------

def even_span(gap: float) -> int:
    """Smallest even lattice span covering a real gap, and at least 2."""
    span = max(2, int(math.ceil(gap)))
    return span + (span % 2)


def b1_battery(p: float, eps: float, t: float, delta_list, replicas: int, *,
               sigma_hat: float, seed: int = 0, workers: int = 1,
               scan_guard: int = DEFAULT_SCAN_GUARD, replica_offset: int = 0):
    """P(eta >= 2) for right-boundary families spanning rescaled gaps.

    For each target gap ``delta`` the family starts on all even columns of
    ``[0, x_eps]``, where ``x_eps = even_span(delta * sigma_hat / sqrt(eps))``,
    and eta is counted at level ``floor(t / eps)``.  Each replica is one
    configuration, on which ``eta >= 2`` iff the two extreme clusters have
    not merged by that level (`family_eta`), so only that pair runs,
    through `pair_merges`.  Both the estimate and the erf baseline refer to
    the gap the lattice realises, ``delta_eff = x_eps * sqrt(eps) /
    sigma_hat``, not to ``delta``; as ``x_eps >= 2``, ``delta_eff`` is never
    below ``2 sqrt(eps) / sigma_hat``.
    """
    level = int(math.floor(t / eps))
    rows = []
    for idx, delta in enumerate(delta_list):
        x_eps = even_span(delta * sigma_hat / math.sqrt(eps))
        merges = pair_merges(0, x_eps, level, p, seed=seed,
                             first=replica_offset + idx * replicas,
                             count=replicas, workers=workers,
                             scan_guard=scan_guard)
        k = merges.count(-1)
        ci = wilson_interval(k, replicas)
        delta_eff = x_eps * math.sqrt(eps) / sigma_hat
        rows.append({
            "delta": delta, "delta_eff": delta_eff, "eps": eps, "t": t,
            "x_eps": x_eps, "level": level, "estimate": k / replicas,
            "ci_low": ci[0], "ci_high": ci[1], "n": replicas,
            "baseline": cbm_baseline(delta_eff, t),
        })
    return rows


@dataclass(frozen=True)
class FkgReport:
    p3: float
    p3_ci: tuple
    p2: float
    p2_ci: tuple
    n_per_side: int
    slack: float

    @property
    def rhs(self) -> float:
        return self.p2 * self.p2

    @property
    def holds(self) -> bool:
        return self.p3 <= self.rhs + self.slack


def b2_fkg_check(p: float, n: int, x: int, replicas: int, *, seed: int = 0,
                 workers: int = 1,
                 scan_guard: int = DEFAULT_SCAN_GUARD) -> FkgReport:
    """Estimate P(eta >= 3) against P(eta >= 2)^2 on the family over [0, 2x].

    The two sides come from independent replica banks (half the budget
    each); the slack combines their delta-method standard errors, so a
    violation beyond slack is a genuine positive-correlation failure.  Each
    replica is one configuration.  On the first bank the family is counted
    up to 3 distinct values (`family_etas`); on the second, ``eta >= 2`` iff
    the two extreme clusters have not merged by level ``n``, so only that
    pair runs, through `pair_merges`.  Both banks walk their replicas in
    ranges, one native call each.
    """
    if x < 1:
        raise InvalidArgumentError("x must be at least 1")
    per_side = max(1, replicas // 2)
    xs = tuple(range(0, 2 * x + 1, 2))
    etas3 = family_etas(xs, n, p, seed=seed, first=0, count=per_side, cap=3,
                        workers=workers, scan_guard=scan_guard)
    merges2 = pair_merges(0, 2 * x, n, p, seed=seed, first=per_side,
                          count=per_side, workers=workers,
                          scan_guard=scan_guard)
    k3 = sum(1 for e in etas3 if e >= 3)
    k2 = merges2.count(-1)
    p3, p2 = k3 / per_side, k2 / per_side
    se3 = math.sqrt(max(p3 * (1 - p3), 1.0 / per_side) / per_side)
    se2 = math.sqrt(max(p2 * (1 - p2), 1.0 / per_side) / per_side)
    slack = Z95 * math.sqrt(se3**2 + (2 * p2 * se2)**2)
    return FkgReport(p3, wilson_interval(k3, per_side), p2,
                     wilson_interval(k2, per_side), per_side, slack)
