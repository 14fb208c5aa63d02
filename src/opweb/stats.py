"""Small statistical helpers shared across modules, in plain floats.

No helper here imports numpy: the estimate, the batteries and their
baselines run on Python floats.  The pinned outputs fix the bits of their
figures as numpy forms them, so `float_sum` and `sample_std` make
numpy's float operations in numpy's order; the tests pin each helper
against its numpy form.
"""

from __future__ import annotations

import math

from .errors import InvalidArgumentError

Z95 = 1.959963984540054
SQRT2 = math.sqrt(2.0)
# the most values `float_sum` adds in numpy's order
_SUM_BLOCK = 128


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


def float_sum(values) -> float:
    """The float64 sum of at most 128 floats, bit for bit as ``numpy.sum``
    forms it: below 8 values, in order from 0.0; else in eight interleaved
    partial sums, joined pairwise, and then the values past the last whole
    eight, in order."""
    n = len(values)
    if n > _SUM_BLOCK:
        raise ValueError(f"{n} values: numpy sums more than "
                         f"{_SUM_BLOCK} in blocks")
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    r = list(values[:8])
    end = n - n % 8
    for i in range(8, end, 8):
        for j in range(8):
            r[j] += values[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[end:]:
        total += v
    return total


def sample_std(values) -> float:
    """The sample standard deviation (``ddof = 1``) of 2 to 128 floats, bit
    for bit as ``numpy.std(values, ddof=1)`` forms it."""
    n = len(values)
    mean = float_sum(values) / n
    squares = [(v - mean) * (v - mean) for v in values]
    return math.sqrt(float_sum(squares) / (n - 1))


def ks_distance_to_normal(samples) -> float:
    """One-sample Kolmogorov distance against the standard normal CDF."""
    x = sorted(map(float, samples))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    # normal CDF: Phi(z) = erfc(-z / sqrt 2) / 2
    cdf = [0.5 * math.erfc(-v / SQRT2) for v in x]
    hi = max((i + 1) / n - c for i, c in enumerate(cdf))
    lo = max(c - i / n for i, c in enumerate(cdf))
    return max(hi, lo)


def cbm_baseline(delta: float, t: float) -> float:
    """Survival probability of two coalescing Brownian paths a gap apart.

    Closed form erf(delta / (2 sqrt(t))); validate against
    `opweb.oracle.coalescing_walk_survival` before trusting it in an
    experiment.
    """
    if delta <= 0 or t <= 0:
        raise InvalidArgumentError("delta and t must be positive")
    return math.erf(delta / (2.0 * math.sqrt(t)))
