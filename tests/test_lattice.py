import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opweb.errors import InvalidArgumentError, InvalidSiteError
from opweb.lattice import (Config, EdgeRef, LatticeSite, Orientation,
                           edge_key, edge_status, edge_status_array,
                           independence_probe, make_key_sampler,
                           replica_bases, replica_config, unpack_edge_key)

CHI2_CRIT_1DOF_001 = 10.828  # chi-square upper 0.001 quantile, 1 dof


def test_site_parity_enforced():
    LatticeSite(2, 4)
    LatticeSite(-3, 5)
    with pytest.raises(InvalidSiteError):
        LatticeSite(0, 1)
    with pytest.raises(InvalidSiteError):
        LatticeSite(-2, 3)


def test_edge_targets_stay_on_lattice():
    e_plus = EdgeRef(LatticeSite(0, 0), Orientation.UP_RIGHT)
    e_minus = EdgeRef(LatticeSite(0, 0), Orientation.UP_LEFT)
    assert e_plus.target() == LatticeSite(1, 1)
    assert e_minus.target() == LatticeSite(-1, 1)


@given(st.integers(-2**30, 2**30), st.integers(-2**20, 2**20),
       st.integers(0, 1))
def test_edge_key_roundtrip(x, t, d):
    assert unpack_edge_key(edge_key(x, t, d)) == (x, t, d)


def test_degenerate_probabilities():
    site = LatticeSite(4, 2)
    for d in Orientation:
        assert edge_status(Config(9, 1.0, 3), EdgeRef(site, d)) is True
        assert edge_status(Config(9, 0.0, 3), EdgeRef(site, d)) is False


def test_config_validates_p():
    with pytest.raises(InvalidArgumentError):
        Config(0, 1.5)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32),
       st.integers(-1000, 1000), st.integers(-1000, 1000))
@settings(max_examples=60)
def test_determinism_and_vector_scalar_agreement(seed, stream, x, t):
    if (x + t) % 2:
        x += 1
    cfg1 = Config(seed, 0.37, stream)
    cfg2 = Config(seed, 0.37, stream)
    key = edge_key(x, t, 1)
    s = make_key_sampler(cfg1)(key)
    assert s == make_key_sampler(cfg2)(key)
    vec = edge_status_array(cfg1, [x], [t], [1])
    assert bool(vec[0]) == s


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**62),
       st.integers(0, 6))
@settings(max_examples=60)
def test_replica_bases_are_those_of_replica_configs(seed, first, count):
    # from replica 2**54 on, the stream id itself passes 2**64 and wraps;
    # its product with GOLDEN wraps from replica 0 on
    bases = replica_bases(seed, first, count)
    assert bases.typecode == "Q" and len(bases) == count
    assert [int(b) for b in bases] == [
        replica_config(seed, 0.37, first + k)._base for k in range(count)]


@pytest.mark.parametrize("x, t", [(-1, 0), (0, -1), (-3, -2), (-4, 7),
                                  (-2**30, -2**20 + 1)])
def test_array_rejects_odd_parity_at_negative_coordinates(x, t):
    with pytest.raises(InvalidSiteError):
        edge_status_array(Config(1, 0.5, 0), [0, x], [0, t], [1, 1])


def _edge_grid(n):
    xs = np.arange(n, dtype=np.int64)
    return xs, xs.copy(), np.ones(n, dtype=np.int64)


def test_marginal_frequency_within_3_sigma():
    n = 10**6
    p = 0.8
    xs, ts, ds = _edge_grid(n)
    frac = edge_status_array(Config(1234, p, 7), xs, ts, ds).mean()
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(frac - p) < 3 * sigma


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_chi2_goodness_of_fit(p):
    n = 10**6
    xs, ts, ds = _edge_grid(n)
    k = int(edge_status_array(Config(777, p, 11), xs, ts, ds).sum())
    expected_open = n * p
    chi2 = ((k - expected_open) ** 2 / expected_open
            + ((n - k) - n * (1 - p)) ** 2 / (n * (1 - p)))
    assert chi2 < CHI2_CRIT_1DOF_001


def _sample_edges(n):
    return [EdgeRef(LatticeSite(i, i), Orientation.UP_RIGHT) for i in range(n)]


def test_probe_self_correlation_is_one():
    cfg = Config(5, 0.5, 0)
    res = independence_probe(cfg, Config(5, 0.5, 0), _sample_edges(2000))
    assert not res.degenerate
    assert res.correlation == pytest.approx(1.0)


def test_probe_distinct_streams_uncorrelated():
    n = 10**5
    res = independence_probe(Config(5, 0.5, 0), Config(5, 0.5, 1),
                             _sample_edges(n))
    assert not res.degenerate
    assert abs(res.correlation) < 4 / math.sqrt(n)


def test_probe_degenerate_and_empty():
    res = independence_probe(Config(5, 1.0, 0), Config(5, 1.0, 1),
                             _sample_edges(100))
    assert res.degenerate and res.correlation is None
    with pytest.raises(InvalidArgumentError):
        independence_probe(Config(5, 0.5, 0), Config(5, 0.5, 1), [])


def test_streams_give_different_configurations():
    n = 4000
    xs, ts, ds = _edge_grid(n)
    a = edge_status_array(Config(5, 0.5, 0), xs, ts, ds)
    b = edge_status_array(Config(5, 0.5, 1), xs, ts, ds)
    assert (a != b).any()
