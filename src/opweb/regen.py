"""Break points along right boundaries and drift/diffusivity estimation.

A time ``n`` is a (surrogate) break point when the open cluster of
``(r(n), n)`` reaches a survival horizon ``H``; that holds exactly when the
horizon-``H`` rightmost path and the right boundary coincide at ``n``, which
is how detection is implemented (one exploration run yields both).  Between
consecutive break points the spatial and temporal increments ``(X_i, tau_i)``
are i.i.d. from the second record on; the first record is always excluded
from estimation.

Each estimate replica hands `RegenAccumulator` six integer sums of its
increments and nothing else, formed in one C call
(`opweb._native.breaks`, the ``walk_breaks`` entry of ``_walk.c``), which
detects the break points on ``[0, n - margin]`` of a walk run to level
``n + margin``: those inside the trailing ``margin`` levels of the window
are discarded, as their survival evidence is one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (DEFAULT_SCAN_GUARD, InsufficientDataError,
                     InvalidArgumentError)
from .explore import explore_to_level
from .lattice import LatticeSite, replica_config
from .runner import pmap
from .stats import sample_std, wilson_interval

DEFAULT_BATCHES = 30
HORIZON_MARGIN = 256  # least levels past the window that gamma runs to


@dataclass(frozen=True)
class DriftDiffusivity:
    alpha_hat: float
    sigma_hat: float
    n_records: int
    alpha_se: float
    sigma_se: float


def _plugin(stats) -> tuple[float, float]:
    n, sx, st, sxx, sxt, stt = stats
    mx, mt, xx, xt, tt = sx / n, st / n, sxx / n, sxt / n, stt / n
    # E[(X m_tau - tau m_X)^2] / m_tau^3 from raw second moments
    sigma2 = (mt * mt * xx - 2.0 * mt * mx * xt + mx * mx * tt) / mt**3
    return float(sx / st), math.sqrt(max(sigma2, 0.0))


class RegenAccumulator:
    """The one drift and diffusivity estimator: plug-in α and σ from
    per-replica sufficient statistics.

    Feed each replica's six sums of its integer increments ``(X, tau)``
    with `add`: the count, ΣX, Στ, ΣX², ΣXτ and Στ².  A replica without
    records is dropped.  `finalize` pools every record.  Its standard
    errors come from ``b = min(DEFAULT_BATCHES, m)`` batches of consecutive
    replicas, where ``m`` replicas hold records; replicas are independent
    by design.  With ``m < 2`` the standard errors are undefined and come
    out as NaN.
    """

    def __init__(self):
        self._per_replica = []  # (n, sx, st, sxx, sxt, stt)

    def add(self, sums):
        # integer sums below 2**53: each is exact as a float64
        self._per_replica.append(tuple(sums))

    def finalize(self) -> DriftDiffusivity:
        rows = [row for row in self._per_replica if row[0] > 0]
        n = sum(row[0] for row in rows)
        if n < 2:
            raise InsufficientDataError(f"{n} records; need at least 2")
        alpha, sigma = _plugin(_column_sums(rows))
        m = len(rows)
        b = min(DEFAULT_BATCHES, m)
        if b < 2:
            return DriftDiffusivity(alpha, sigma, n, math.nan, math.nan)
        # numpy.linspace(0, m, b + 1), truncated to integers
        step = m / b
        bounds = [int(i * step) for i in range(b)] + [m]
        batches = [_plugin(_column_sums(rows[lo:hi]))
                   for lo, hi in zip(bounds, bounds[1:])]
        alpha_se, sigma_se = (sample_std(v) / math.sqrt(b)
                              for v in zip(*batches))
        return DriftDiffusivity(alpha, sigma, n, alpha_se, sigma_se)


def _column_sums(rows) -> list:
    """The six sums over ``rows``, as floats.  Each is an integer below
    2**53, so it equals a float sum of the rows in any order, numpy's
    among them."""
    return [float(sum(column)) for column in zip(*rows)]


def replica_estimate(p: float, seed: int, replicas: int, n: int, margin: int,
                     *, workers: int = 1,
                     scan_guard: int = DEFAULT_SCAN_GUARD):
    """Drift and diffusivity pooled over independent replicas from (0, 0).

    Replica ``k`` explores ``replica_config(seed, p, k)`` to level
    ``n + margin`` and contributes the sums of the increments between its
    break points on ``[0, n - margin]``, so its first record is left out.
    Needs ``0 < margin <= n``, checked before any walk starts.  Returns the
    pooled `DriftDiffusivity`, whose batches are whole replicas, and the
    endpoints ``r(n)``, one per replica.
    """
    if margin <= 0:
        raise InvalidArgumentError("margin must be positive")
    if n < margin:
        raise InvalidArgumentError("margin leaves no detection window")
    from . import _native  # may build the library: not at import
    walks = pmap(lambda rep: _native.breaks(replica_config(seed, p, rep), n,
                                            margin, scan_guard),
                 range(replicas), workers)
    acc = RegenAccumulator()
    endpoints = []
    for sums, r_n in walks:
        acc.add(sums)
        endpoints.append(r_n)
    return acc.finalize(), endpoints


def _error_gap_worker(cfg, window, threshold, horizon, scan_guard):
    b = explore_to_level(LatticeSite(0, 0), window, cfg, horizon=horizon,
                         scan_guard=scan_guard)
    sup_err = max(r - g for r, g in zip(b.right[:window + 1],
                                        b.gamma[:window + 1]))
    meets = [j for j, (r, g) in enumerate(zip(b.right, b.gamma)) if r == g]
    return sup_err >= threshold, _has_meeting_gap(meets, window, threshold)


def _has_meeting_gap(meets, window, threshold) -> bool:
    """True iff a meeting-free stretch of length ``threshold`` starts
    somewhere in [0, window]; ``meets``, an increasing sequence of levels,
    must cover [0, window + threshold]."""
    if len(meets) == 0 or meets[0] > threshold:
        return True
    if any(b - a > threshold and a < window
           for a, b in zip(meets, meets[1:])):
        return True
    return bool(meets[-1] < window)


def error_gap_frequencies(replicas: int, p: float, eps_list, delta: float,
                          L: float, *, seed: int = 0, workers: int = 1,
                          scan_guard: int = DEFAULT_SCAN_GUARD):
    """Frequencies of the sup-error and meeting-gap events per epsilon.

    For each eps: the sup of ``r - gamma`` over ``[0, L/eps]`` reaching
    ``eps**-delta``, and the existence of a meeting-free stretch of that
    length.  Gamma uses the horizon surrogate with a generous margin.
    Returns one row per eps with Wilson intervals.
    """
    if not 0 < delta < 1:
        raise InvalidArgumentError("delta must lie in (0, 1)")
    if L <= 0:
        raise InvalidArgumentError("L must be positive")
    rows = []
    for i, eps in enumerate(eps_list):
        window = int(math.floor(L / eps))
        threshold = eps**(-delta)
        horizon = window + max(3 * window, HORIZON_MARGIN)
        outcomes = pmap(lambda rep: _error_gap_worker(
            replica_config(seed, p, i * replicas + rep), window, threshold,
            horizon, scan_guard), range(replicas), workers)
        k_err = sum(1 for e, _ in outcomes if e)
        k_gap = sum(1 for _, g in outcomes if g)
        rows.append({
            "eps": eps, "window": window, "threshold": threshold,
            "n": replicas,
            "freq_error": k_err / replicas,
            "ci_error": wilson_interval(k_err, replicas),
            "freq_gap": k_gap / replicas,
            "ci_gap": wilson_interval(k_gap, replicas),
        })
    return rows

