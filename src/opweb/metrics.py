"""Rescaling map and path-space metric.

Spatial coordinates are squashed by ``tanh(x) / (1 + |t|)`` and times by
``tanh(t)``, which compactifies the plane; both infinities of a time row
collapse to single points, so finite-horizon truncations of paths behave
continuously under the metrics.  The supremum in the path distance is
maximised on each linear segment between the breakpoints of both paths and
t = 0, where the squashed gap is smooth: its maximum there lies at an end
or at a zero of its derivative, and the zeros are isolated by bisection
with a bound on the derivative's slope.  The result is the true supremum to
within rounding, so the triangle inequality holds between distances.

The paths are numpy arrays, so no command imports this module.  The
crossing-count batteries B1 and B2 of the convergence criteria, which
build no path, live in `opweb.couple`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .explore import Trajectory

# bounds on |(sech^2)'| and |(sech^2)''|, for the slope of the gap's derivative
_SECH2_SLOPE = 4.0 / (3.0 * math.sqrt(3.0))
_SECH2_CURVE = 2.0


@dataclass(frozen=True)
class RescaledPath:
    """Piecewise-linear real path; constant before its start and after its
    last sample (finite-horizon truncation)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values) or len(self.times) == 0:
            raise InvalidArgumentError("times and values must match and be nonempty")

    @property
    def sigma(self) -> float:
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def evaluate(self, t):
        return np.interp(t, self.times, self.values)


def shear_rescale(path, a: float, b: float, eps: float) -> RescaledPath:
    """Image of a path under drift removal and diffusive rescaling.

    A point ``(x, t)`` maps to ``(sqrt(eps)/b * (x - a t), eps t)``; lattice
    trajectories are interpolated linearly between integer times first.
    """
    if b <= 0 or eps <= 0:
        raise InvalidArgumentError("b and eps must be positive")
    if isinstance(path, Trajectory):
        times = path.start_t + np.arange(len(path.values), dtype=np.float64)
        values = path.values.astype(np.float64)
    else:
        times = np.asarray(path.times, dtype=np.float64)
        values = np.asarray(path.values, dtype=np.float64)
    scale = math.sqrt(eps) / b
    return RescaledPath(eps * times, scale * (values - a * times))


def _squashed_gap(ts, a, b):
    return np.abs(np.tanh(a) - np.tanh(b)) / (1.0 + np.abs(ts))


def _sup_squashed_gap(ts: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Sup over ``[ts[0], ts[-1]]`` of ``|tanh a - tanh b| / (1 + |t|)``.

    ``a`` and ``b`` are linear between the increasing knots ``ts``, and 0 is
    a knot.  On a segment the gap is ``|N| / u`` with ``N = tanh a - tanh
    b`` and ``u = 1 + |t|`` linear, and the sign of its derivative is that
    of ``h = N' u - u' N``.  A cell is split while ``h`` may vanish inside
    it, judged by a bound on ``|h'| = |N''| u``, and while the gap could
    exceed the best value found; the maximum over a cell where ``h`` keeps
    its sign is at an end.
    """
    best = float(_squashed_gap(ts, a, b).max())
    if len(ts) < 2:
        return best
    sa = np.diff(a) / np.diff(ts)
    sb = np.diff(b) / np.diff(ts)
    side = np.sign(ts[:-1] + ts[1:])  # the sign of t on each segment

    def at(t, k):
        x = a[k] + sa[k] * (t - ts[k])
        y = b[k] + sb[k] * (t - ts[k])
        tx, ty = np.tanh(x), np.tanh(y)
        u = 1.0 + np.abs(t)
        h = ((sa[k] * (1.0 - tx * tx) - sb[k] * (1.0 - ty * ty)) * u
             - side[k] * (tx - ty))
        return np.abs(tx - ty) / u, np.abs(x - y), h

    k = np.flatnonzero((a[:-1] != b[:-1]) | (sa != sb))  # gap not 0 on all
    lo, hi = ts[k], ts[k + 1]
    while len(k):
        gap_lo, dist_lo, h_lo = at(lo, k)
        gap_hi, dist_hi, h_hi = at(hi, k)
        width = hi - lo
        far = 1.0 + np.maximum(np.abs(lo), np.abs(hi))
        near = 1.0 + np.minimum(np.abs(lo), np.abs(hi))
        sa2, sb2 = sa[k] ** 2, sb[k] ** 2
        # |h'| <= u (|sa^2 - sb^2| max|g| + min(sa^2, sb^2) max|g'| |a - b|)
        # with g = (sech^2)'
        slope = far * (np.abs(sa2 - sb2) * _SECH2_SLOPE + np.minimum(sa2, sb2)
                       * _SECH2_CURVE * np.maximum(dist_lo, dist_hi))
        turns = ((h_lo * h_hi < 0)
                 | (np.abs(h_lo) + np.abs(h_hi) <= slope * width))
        # |gap'| = |h| / u^2 on the cell bounds how far the gap can rise
        rise = (width * (np.minimum(np.abs(h_lo), np.abs(h_hi))
                         + slope * width) / near ** 2)
        live = (turns & (np.minimum(gap_lo, gap_hi) + rise > best)
                & (width > 1e-9 * far))
        k, lo, hi = k[live], lo[live], hi[live]
        if not len(k):
            break
        mid = 0.5 * (lo + hi)
        best = max(best, float(at(mid, k)[0].max()))
        k = np.concatenate([k, k])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return best


def path_distance(p1: RescaledPath, p2: RescaledPath) -> float:
    """Start-time term joined with the sup of squashed spatial separation.

    Both paths are constant outside their sampled range, where the squashed
    gap ``|tanh a - tanh b| / (1 + |t|)`` grows towards t = 0 and shrinks
    away from it.  The sup is therefore taken over
    ``[min(sigma1, sigma2, 0), max(end1, end2, 0)]`` with 0 as a knot, which
    equals the sup over the whole time line; on each segment between knots
    both paths are linear and `_sup_squashed_gap` maximises the gap exactly.
    """
    start_term = abs(math.tanh(p1.sigma) - math.tanh(p2.sigma))
    ts = np.union1d(np.concatenate([p1.times, p2.times]), [0.0])
    sup_term = _sup_squashed_gap(ts, p1.evaluate(ts), p2.evaluate(ts))
    return max(start_term, sup_term)
