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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError
from .explore import DEFAULT_SCAN_GUARD
from .lattice import Config, replica_bases
from .oracle import cbm_baseline
from .runner import pmap, replica_ranges


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
