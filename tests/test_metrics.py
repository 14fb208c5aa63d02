import math

import numpy as np
import pytest

from opweb.couple import b1_battery, b2_fkg_check, even_span, family_eta
from opweb.errors import InvalidArgumentError
from opweb.explore import Trajectory
from opweb.lattice import replica_config
from opweb.metrics import RescaledPath, path_distance, shear_rescale
from opweb.stats import cbm_baseline

TANH1 = math.tanh(1.0)


def _traj(start_t, values):
    return Trajectory(start_t, np.array(values, dtype=np.int64))


def _pl(times, values):
    return RescaledPath(np.array(times, float), np.array(values, float))


# -- rescaling map -----------------------------------------------------------

def test_shear_identity():
    path = shear_rescale(_traj(0, [0, 1, 2, 1]), 0.0, 1.0, 1.0)
    assert np.allclose(path.times, [0, 1, 2, 3])
    assert np.allclose(path.values, [0, 1, 2, 1])


def test_shear_removes_exact_drift():
    traj = _traj(0, [0, 1, 2, 3, 4])
    path = shear_rescale(traj, 1.0, 2.0, 0.25)
    assert np.allclose(path.values, 0.0)
    assert np.allclose(path.times, 0.25 * np.arange(5))


def test_shear_rejects_bad_parameters():
    with pytest.raises(InvalidArgumentError):
        shear_rescale(_traj(0, [0, 1]), 0.0, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        shear_rescale(_traj(0, [0, 1]), 0.0, 1.0, -1.0)


def test_shear_composition_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        t0 = int(rng.integers(-5, 5)) * 2
        vals = t0 + np.cumsum(rng.choice([-1, 1], size=n))
        traj = _traj(t0, np.concatenate([[t0], vals]))
        a = float(rng.uniform(-1, 1))
        b = float(rng.uniform(0.2, 3.0))
        eps = float(rng.uniform(0.01, 1.0))
        direct = shear_rescale(traj, a, b, eps)
        composed = shear_rescale(shear_rescale(traj, a, 1.0, 1.0), 0.0, b, eps)
        assert np.all(np.abs(direct.times - composed.times) < 1e-12)
        assert np.all(np.abs(direct.values - composed.values) < 1e-12)


# -- path distance -----------------------------------------------------------

def test_distance_identity():
    p = _pl([0, 1, 2], [0, 1, 0])
    assert path_distance(p, p) == 0.0


def test_distance_constant_paths_hand_value():
    # Held constant outside [sigma, end], the squashed gap peaks at t = 0
    # even when both paths end before it or start after it.
    for times in ([0, 1000], [-3, -2], [2, 3]):
        p0 = _pl(times, [0, 0])
        p1 = _pl(times, [1, 1])
        assert path_distance(p0, p1) == pytest.approx(TANH1, abs=1e-12)


def _random_path(rng):
    n = int(rng.integers(2, 8))
    times = np.sort(rng.uniform(-3, 3, size=n))
    times[0] = times[0] - 0.1  # guard against duplicate knots
    return _pl(times, rng.uniform(-3, 3, size=n))


def test_distance_metric_axioms_on_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p1, p2, p3 = (_random_path(rng) for _ in range(3))
        d12 = path_distance(p1, p2)
        d13 = path_distance(p1, p3)
        d23 = path_distance(p2, p3)
        assert d12 == path_distance(p2, p1)
        assert d12 >= 0
        assert d13 <= d12 + d23 + 1e-9


def test_distance_triangle_inequality_where_a_grid_sup_broke_it():
    # rng seeds and 0-based triple indices of the generator above where a
    # sup over the knots and 16 points per unit of time broke the triangle
    # inequality by up to 3.9e-4
    for seed, index in ((90, 105), (167, 80), (172, 116)):
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            p1, p2, p3 = (_random_path(rng) for _ in range(3))
        d12 = path_distance(p1, p2)
        d13 = path_distance(p1, p3)
        d23 = path_distance(p2, p3)
        assert d13 <= d12 + d23 + 1e-9
        assert d12 <= d13 + d23 + 1e-9
        assert d23 <= d12 + d13 + 1e-9


def test_distance_is_the_sup_of_a_dense_grid():
    # the sup is no less than the gap at any time, and a grid of 10^5
    # points per unit of time plus the knots comes within 1e-9 of it
    rng = np.random.default_rng(17)
    for _ in range(30):
        p1, p2 = _random_path(rng), _random_path(rng)
        lo = min(p1.sigma, p2.sigma, 0.0)
        hi = max(p1.end_time, p2.end_time, 0.0)
        ts = np.union1d(np.linspace(lo, hi, int((hi - lo) * 10**5) + 1),
                        np.concatenate([p1.times, p2.times, [0.0]]))
        gap = np.abs(np.tanh(p1.evaluate(ts)) - np.tanh(p2.evaluate(ts)))
        dense = max(float((gap / (1.0 + np.abs(ts))).max()),
                    abs(np.tanh(p1.sigma) - np.tanh(p2.sigma)))
        d = path_distance(p1, p2)
        assert dense <= d + 1e-12
        assert d <= dense + 1e-9


# -- eta ---------------------------------------------------------------------
# eta on the lattice is `couple.family_eta`, checked against whole walks in
# tests/test_couple.py; these are its order properties.

def test_eta_monotone_in_window_and_set():
    wider = fewer = 0
    for rep in range(40):
        cfg = replica_config(19, 0.8, rep)
        base = family_eta(range(-4, 5, 2), 0, 30, cfg)
        w = family_eta(range(-8, 9, 2), 0, 30, cfg)
        s = family_eta((-4, -2, 0), 0, 30, cfg)
        assert w >= base >= s
        wider += w > base
        fewer += s < base
    assert wider >= 10 and fewer >= 10


def test_eta_nonincreasing_in_t_for_coalescing_families():
    # equal-time clusters that meet stay together (Durrett, 1984)
    xs = tuple(range(-8, 9, 2))
    for rep in range(40):
        cfg = replica_config(23, 0.8, rep)
        etas = [family_eta(xs, 0, level, cfg) for level in range(0, 64, 4)]
        assert etas[0] == len(xs)
        assert all(a >= b for a, b in zip(etas[:-1], etas[1:]))


def test_even_span():
    assert even_span(27.6) == 28
    assert even_span(2.0) == 2
    assert even_span(0.5) == 2


# -- batteries ---------------------------------------------------------------

def test_b1_estimate_matches_walk_oracle_at_effective_gap():
    from opweb.oracle import coalescing_walk_survival
    rows = b1_battery(0.8, 1e-3, 1.0, [1.0], 4000, sigma_hat=0.8733, seed=8,
                      workers=2)
    row = rows[0]
    oracle = coalescing_walk_survival(row["delta_eff"], 1.0)
    assert abs(oracle - row["baseline"]) < 0.01
    assert abs(row["estimate"] - oracle) < 0.02


def test_b1_probability_increases_with_gap():
    rows = b1_battery(0.8, 0.01, 0.5, [0.5, 1.0, 2.0], 400,
                      sigma_hat=0.8733, seed=6, workers=2)
    estimates = [row["estimate"] for row in rows]
    assert estimates[0] <= estimates[1] + 0.05
    assert estimates[1] <= estimates[2] + 0.05


def test_b1_large_t_kills_eta():
    eps, delta, sigma_hat = 0.05, 0.25, 0.8733
    rows = b1_battery(0.8, eps, 20.0, [delta], 200, sigma_hat=sigma_hat,
                      seed=2, workers=2)
    row = rows[0]
    # The lattice cannot resolve gaps below one even step, 2 sqrt(eps)/sigma,
    # so the realised gap must lie within one step of the target ...
    assert row["delta_eff"] < delta + 2 * math.sqrt(eps) / sigma_hat
    # ... and at large t the family must have coalesced as far as the
    # Brownian baseline at that gap says.
    assert row["ci_low"] <= row["baseline"]


def test_b2_tiny_window_cannot_reach_three():
    rep = b2_fkg_check(0.8, 60, 1, 400, seed=3, workers=2)
    assert rep.p3 == 0.0


def test_b2_full_lattice_boundary_case():
    rep = b2_fkg_check(1.0, 50, 3, 60, seed=1)
    assert rep.p3 == 1.0
    assert rep.rhs == 1.0
    assert rep.holds


def test_b2_moderate_run_holds():
    rep = b2_fkg_check(0.8, 200, 8, 2000, seed=12, workers=2)
    assert rep.p3 <= rep.rhs + rep.slack
    assert 0 < rep.p2 < 1
