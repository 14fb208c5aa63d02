import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from opweb import _native
from opweb.errors import (InsufficientDataError, InvalidArgumentError,
                          ScanLimitExceededError)
from opweb.explore import explore_to_level
from opweb.lattice import Config, LatticeSite, replica_config
from opweb.regen import (DEFAULT_BATCHES, DriftDiffusivity, RegenAccumulator,
                         _plugin, error_gap_frequencies, replica_estimate)
from opweb.stats import (float_sum, ks_distance_to_normal, sample_std,
                         wilson_interval)

from _references import break_point_arrays, estimate_reference, increment_sums

ORIGIN = LatticeSite(0, 0)
KS_CRIT_1PCT_2000 = 0.0364  # asymptotic 1.628 / sqrt(2000)


def _explored(cfg, n_end, margin):
    return explore_to_level(ORIGIN, n_end + margin, cfg)


def _break_points(bounds, n_end, margin):
    return break_point_arrays(bounds.right, bounds.left, bounds.start.t,
                              n_end, margin)


def _estimate(X, tau):
    acc = RegenAccumulator()
    acc.add(increment_sums(X, tau))
    return acc.finalize()


def test_full_lattice_break_points():
    cluster = _explored(Config(1, 1.0, 1), 40, 10)
    T, RT = _break_points(cluster, 40, 10)
    assert (T[0], RT[0]) == (0, 0)
    X, tau = np.diff(RT), np.diff(T)
    assert np.all(X == 1) and np.all(tau == 1)
    est = _estimate(X, tau)
    assert est.alpha_hat == 1.0
    assert est.sigma_hat == 0.0


def test_two_atom_law_hand_computed():
    # X uniform on {0, 2}, tau = 1: drift 1, plug-in variance exactly 1
    est = _estimate([2 * (i % 2) for i in range(2, 602)], np.ones(600))
    assert est.alpha_hat == pytest.approx(1.0, abs=1e-12)
    assert est.sigma_hat == pytest.approx(1.0, abs=1e-12)


def test_estimator_rejects_tiny_samples():
    with pytest.raises(InsufficientDataError):
        _estimate([1], [1])


def test_record_invariants_at_supercritical_p():
    cfg = Config(33, 0.8, 1)
    cluster = _explored(cfg, 2000, 300)
    T, RT = _break_points(cluster, 2000, 300)
    X, tau = np.diff(RT), np.diff(T)
    assert np.all(tau >= 1)
    assert np.all(np.abs(X) <= tau)
    # break points are exactly the left/right coincidence times
    left = np.array(cluster.left)
    r = np.array(cluster.right)
    assert np.all(left[T] == r[T])
    # between breaks the error is bounded by twice the waiting time
    for a, b in zip(T[:-1], T[1:]):
        assert (r[a:b + 1] - left[a:b + 1]).max() <= 2 * (b - a)


def test_margin_doubling_stability():
    cfg = Config(44, 0.8, 9)
    cluster = _explored(cfg, 2000, 500)
    T1, R1 = _break_points(cluster, 2000, 250)
    T2, R2 = _break_points(cluster, 2000, 500)
    keep = T1 <= 2000 - 500
    assert np.array_equal(T1[keep], T2)
    assert np.array_equal(R1[keep], R2)


def test_detect_validates_inputs():
    cluster = _explored(Config(3, 0.8, 1), 50, 10)
    with pytest.raises(InvalidArgumentError):
        _break_points(cluster, 50, 0)  # no survival margin
    with pytest.raises(InvalidArgumentError):
        _break_points(cluster, 50, 11)  # horizon beyond the cluster
    with pytest.raises(InvalidArgumentError):
        _break_points(cluster, 10, 50)  # margin leaves no window


def test_increment_autocorrelation_near_zero():
    acc_x, acc_t = [], []
    for rep in range(20):
        cluster = _explored(Config(71, 0.8, (rep + 1) * 1024), 5000, 300)
        T, RT = _break_points(cluster, 5000, 300)
        acc_x.append(np.diff(RT))
        acc_t.append(np.diff(T))
    X = np.concatenate(acc_x).astype(float)
    tau = np.concatenate(acc_t).astype(float)
    n = len(X)
    for series in (X, tau):
        a, b = series[:-1], series[1:]
        corr = ((a - a.mean()) * (b - b.mean())).mean() / (a.std() * b.std())
        assert abs(corr) < 4 / math.sqrt(n)


def test_sigma_translation_invariance():
    def sigma_at(origin, seed):
        acc = RegenAccumulator()
        for rep in range(10):
            cluster = explore_to_level(origin, origin.t + 4300,
                                       Config(seed, 0.8, (rep + 1) * 1024))
            T, RT = _break_points(cluster, origin.t + 4000, 300)
            acc.add(increment_sums(np.diff(RT), np.diff(T)))
        return acc.finalize()

    a = sigma_at(LatticeSite(0, 0), 5)
    b = sigma_at(LatticeSite(6, 4), 5)
    joint = math.hypot(a.sigma_se, b.sigma_se)
    assert abs(a.sigma_hat - b.sigma_hat) < 4 * joint


def test_accumulator_matches_direct_estimate():
    cluster = _explored(Config(9, 0.8, 2), 3000, 300)
    T, RT = _break_points(cluster, 3000, 300)
    X, tau = np.diff(RT), np.diff(T)
    direct = _estimate(X, tau)
    assert direct.alpha_hat == pytest.approx(X.sum() / tau.sum(), rel=1e-12)
    acc = RegenAccumulator()
    acc.add(increment_sums(X[:400], tau[:400]))
    acc.add(increment_sums(X[400:], tau[400:]))
    merged = acc.finalize()
    assert merged.alpha_hat == pytest.approx(direct.alpha_hat, rel=1e-12)
    assert merged.sigma_hat == pytest.approx(direct.sigma_hat, rel=1e-12)
    assert merged.n_records == direct.n_records


def test_accumulator_sums_are_exact():
    # integer records with sums below 2**53: the six per-replica sums equal
    # the integer sums, whatever the order in which they are formed
    cluster = _explored(Config(9, 0.8, 2), 3000, 300)
    T, RT = _break_points(cluster, 3000, 300)
    X, tau = np.diff(RT).tolist(), np.diff(T).tolist()
    acc = RegenAccumulator()
    acc.add(increment_sums(X, tau))
    assert acc._per_replica == [(
        len(X), sum(X), sum(tau), sum(x * x for x in X),
        sum(x * s for x, s in zip(X, tau)), sum(s * s for s in tau))]


def test_accumulator_one_replica_leaves_errors_undefined():
    # one replica forms one batch: no standard error, and no empty batch
    cluster = _explored(Config(9, 0.8, 2), 3000, 300)
    T, RT = _break_points(cluster, 3000, 300)
    X, tau = np.diff(RT), np.diff(T)
    acc = RegenAccumulator()
    acc.add(increment_sums(X, tau))
    acc.add(increment_sums([], []))  # a replica without records: no batch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = acc.finalize()
    assert est.alpha_hat == pytest.approx(X.sum() / tau.sum(), rel=1e-12)
    assert math.isnan(est.alpha_se) and math.isnan(est.sigma_se)


def _worker_outcome(body, cfg, n, margin, guard):
    """What an estimate worker body returns, or its guard error's message
    and scan offset."""
    try:
        return body(cfg, n, margin, guard)
    except ScanLimitExceededError as e:
        return str(e), e.scan_offset


@pytest.mark.parametrize("p", [0.66, 0.7, 0.8, 0.9, 1.0])
def test_native_break_sums_match_the_reference(p):
    # the native worker body against the Python walk's arrays, on windows
    # of every width down to the single level of n == margin
    counts = []
    for rep in range(30):
        cfg = replica_config(6, p, rep)
        n = 20 + 9 * rep
        margin = n if rep % 5 == 0 else 1 + (7 * rep) % n
        native = _native.breaks(cfg, n, margin, 10_000)
        assert native == estimate_reference(cfg, n, margin, 10_000)
        assert all(type(v) is int for v in (*native[0], native[1]))
        counts.append(native[0][0])
        if p == 1.0:  # every level is a break level
            assert native == ((n - margin, n - margin, n - margin,
                               n - margin, n - margin, n - margin), n)
    assert counts[0] == 0 and max(counts) > 0


@pytest.mark.parametrize("guard", [1, 7, 40])
def test_native_break_sums_trip_as_the_reference(guard):
    cfg = replica_config(2, 0.5, 0)
    outcome = _worker_outcome(_native.breaks, cfg, 200, 50, guard)
    assert outcome == _worker_outcome(estimate_reference, cfg, 200, 50, guard)
    assert outcome[1] == guard


def test_estimate_validates_before_walking():
    # a replica that would trip its guard on the first level still gives
    # the margin's error: no walk starts
    for n, margin in ((200, 0), (200, -3), (100, 200)):
        with pytest.raises(InvalidArgumentError):
            replica_estimate(0.0, 1, 2, n, margin, scan_guard=1)


def test_ks_helper_against_scipy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    ours = ks_distance_to_normal(x)
    theirs = scipy_stats.kstest(x, "norm").statistic
    assert ours == pytest.approx(theirs, abs=1e-12)
    # a point mass at the mean sits half a unit from the normal CDF
    assert ks_distance_to_normal(np.zeros(8)) == pytest.approx(0.5)


def test_ks_null_calibration_2000_points():
    rng = np.random.default_rng(0)
    assert ks_distance_to_normal(rng.normal(size=2000)) < KS_CRIT_1PCT_2000


def test_ks_detects_wrong_scale():
    rng = np.random.default_rng(1)
    samples = rng.normal(size=2000) / 2.0  # sigma doubled in normalization
    assert ks_distance_to_normal(samples) > 0.15


def test_error_gap_full_lattice_is_exact():
    rows = error_gap_frequencies(20, 1.0, [2**-4, 2**-5], 0.25, 1.0, seed=1)
    for row in rows:
        assert row["freq_error"] == 0.0
        assert row["freq_gap"] == 0.0


def test_error_event_with_threshold_near_one():
    # delta near 0 sends the threshold to 1+, so the sup event degenerates
    # to "boundary and gamma differ somewhere", which is nearly certain
    rows = error_gap_frequencies(200, 0.8, [2**-6], 0.01, 1.0, seed=2,
                                 workers=2)
    assert rows[0]["threshold"] < 1.05
    assert rows[0]["freq_error"] > 0.9


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
    lo_small, hi_small = wilson_interval(1, 10)
    assert 0.0 < lo_small < 0.1 < hi_small < 0.5


# -- the plain-float statistics, bit for bit against the numpy they replace ----

def _numpy_finalize(per_replica) -> DriftDiffusivity:
    """`RegenAccumulator.finalize` as numpy computed it."""
    rows = np.array(per_replica, dtype=np.float64).reshape(-1, 6)
    rows = rows[rows[:, 0] > 0]
    n = rows[:, 0].sum()
    if n < 2:
        raise InsufficientDataError(f"{int(n)} records; need at least 2")
    alpha, sigma = _plugin(rows.sum(axis=0))
    b = min(DEFAULT_BATCHES, len(rows))
    if b < 2:
        return DriftDiffusivity(alpha, sigma, int(n), math.nan, math.nan)
    bounds = np.linspace(0, len(rows), b + 1).astype(int)
    batches = [_plugin(rows[lo:hi].sum(axis=0))
               for lo, hi in zip(bounds[:-1], bounds[1:])]
    alpha_se, sigma_se = (float(np.std(v, ddof=1) / math.sqrt(b))
                          for v in zip(*batches))
    return DriftDiffusivity(alpha, sigma, int(n), alpha_se, sigma_se)


def _numpy_ks(samples) -> float:
    """`ks_distance_to_normal` as numpy computed it."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    cdf = np.fromiter((0.5 * math.erfc(-v / math.sqrt(2.0))
                       for v in x.tolist()), dtype=np.float64, count=n)
    hi = np.arange(1, n + 1) / n - cdf
    lo = cdf - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def _bits(est: DriftDiffusivity) -> tuple:
    """The fields of an estimate as exact values, NaN equal to NaN."""
    return tuple(v if isinstance(v, int) else float(v).hex()
                 for v in (est.alpha_hat, est.sigma_hat, est.n_records,
                           est.alpha_se, est.sigma_se))


# a replica's records: increments (X, tau), tau >= 1, or none
_REPLICA = st.lists(st.tuples(st.integers(-1000, 1000), st.integers(1, 1000)),
                    max_size=6)


@settings(max_examples=300, deadline=None)
@given(replicas=st.lists(_REPLICA, min_size=1, max_size=70))
# 70 replicas, 52 of them with records: 30 batches of one or two replicas
@example(replicas=[[(i % 7 - 3, 1 + i % 5)] * (i % 4) for i in range(70)])
def test_finalize_is_the_numpy_finalize_bit_for_bit(replicas):
    # 1 to 70 replicas, record-less ones among them, so b = min(30, m)
    # batches runs from none to 30 over every m
    acc = RegenAccumulator()
    for records in replicas:
        acc.add(increment_sums([x for x, _ in records],
                               [tau for _, tau in records]))
    try:
        expected = _numpy_finalize(acc._per_replica)
    except InsufficientDataError as e:
        with pytest.raises(InsufficientDataError, match=str(e)):
            acc.finalize()
        return
    got = acc.finalize()
    assert type(got.n_records) is int
    assert _bits(got) == _bits(expected)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
def test_ks_distance_is_the_numpy_distance_bit_for_bit(samples):
    assert ks_distance_to_normal(samples).hex() == _numpy_ks(samples).hex()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=128))
def test_float_sum_and_sample_std_are_numpy_s_bit_for_bit(values):
    assert float_sum(values).hex() == float(np.sum(values)).hex()
    assert sample_std(values).hex() == float(np.std(values, ddof=1)).hex()
