"""Small statistical helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

Z95 = 1.959963984540054
SQRT2 = math.sqrt(2.0)


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    z = Z95
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def ks_distance_to_normal(samples) -> float:
    """One-sample Kolmogorov distance against the standard normal CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    # normal CDF: Phi(z) = erfc(-z / sqrt 2) / 2
    cdf = np.fromiter((0.5 * math.erfc(-v / SQRT2) for v in x.tolist()),
                      dtype=np.float64, count=n)
    hi = np.arange(1, n + 1) / n - cdf
    lo = cdf - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))

