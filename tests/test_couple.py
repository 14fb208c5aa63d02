import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from opweb import _native
from opweb.couple import (b1_battery, coalescence_survival_curve, family_eta,
                          family_etas, pair_merges)
from opweb.errors import InvalidArgumentError, InvalidSiteError
from opweb.explore import ExplorationCluster, explore_to_level
from opweb.lattice import (STREAMS_PER_REPLICA, Config, LatticeSite,
                           make_key_sampler, replica_config)

from _ledger import (PreconditionNotMetError, _replay_left,
                     check_coalescence_structure, run_coupled_many)
from _references import squeeze_reference

O = LatticeSite(0, 0)


def test_full_lattice_pair_never_meets():
    run = run_coupled_many([O, LatticeSite(4, 0)], 200, p=1.0, seed=1)
    kt = run.kappas[(0, 1)]
    assert kt.kappa_rr is None and kt.kappa_rl is None
    assert run.r[0] == list(range(201))
    assert run.r[1] == list(range(4, 205))
    assert run.switch_levels[1] is None  # disjoint cones never touch


def test_identical_starts_coalesce_immediately():
    run = run_coupled_many([O, O], 100, p=0.8, seed=2)
    kt = run.kappas[(0, 1)]
    assert kt.kappa_rr == 0 and kt.kappa_rl == 0
    assert run.r[0] == run.r[1]
    report = check_coalescence_structure(run)
    assert report.resolved and report.all_passed


def test_pair_requires_ordered_equal_time_starts():
    with pytest.raises(InvalidArgumentError):
        run_coupled_many([LatticeSite(2, 0), O], 50, p=0.8, seed=1)


def test_pre_switch_equality_with_private_stream():
    run = run_coupled_many([O, LatticeSite(2, 0)], 400, p=0.8, seed=7,
                           replica=0)
    iota = run.switch_levels[1]
    assert iota is not None
    standalone = explore_to_level(LatticeSite(2, 0), max(iota - 1, 0),
                                  Config(7, 0.8, 2))
    assert run.r[1][:iota] == standalone.right[:iota].tolist()


def test_switch_level_is_the_first_level_to_query_a_ledger_edge():
    # cluster 0 reads only its own stream, so the ledger holds the edges a
    # standalone walk on that stream examines; before its switch cluster 1
    # is a walk on its private stream, and its switch level is the first
    # level whose advance queries one of those edges
    seed, p, horizon = 43, 0.8, 300
    switched = 0
    for rep in range(20):
        second = LatticeSite((2, 6, 40)[rep % 3], 0)
        run = run_coupled_many([O, second], horizon, p=p, seed=seed,
                               replica=rep)
        first_stream = make_key_sampler(
            Config(seed, p, rep * STREAMS_PER_REPLICA + 1))
        ledger = set()

        def recording(key):
            ledger.add(key)
            return first_stream(key)

        ExplorationCluster(O, source=recording).advance_to(horizon)
        own = make_key_sampler(Config(seed, p, rep * STREAMS_PER_REPLICA + 2))
        queried = []

        def counting(key):
            queried.append(key in ledger)
            return own(key)

        walk = ExplorationCluster(second, source=counting)
        iota = None
        while iota is None and walk.level < horizon:
            queried.clear()
            walk.advance_level()
            if any(queried):
                iota = walk.level
        assert run.switch_levels == [None, iota], rep
        switched += iota is not None
    assert switched >= 10


@pytest.mark.parametrize("start, cfg, scan_offset", [
    (O, Config(2, 0.7, 1), 0),
    (O, Config(4, 0.7, 1), 1),
    (LatticeSite(3, 5), Config(1, 0.75, 1), 2),
], ids=["from_t0", "restarted_scan", "from_t5_restarted_scan"])
def test_replay_rebuilds_the_left_boundary_at_every_level(start, cfg,
                                                          scan_offset):
    walk = ExplorationCluster(start, source=make_key_sampler(cfg))
    snapshots = [walk.left_values.tolist()]
    for _ in range(200):
        walk.advance_level()
        snapshots.append(walk.left_values.tolist())
    assert walk.scan_offset == scan_offset
    replayed = [(floor, list(L))
                for floor, L in _replay_left(start.x, walk.left_deltas)]
    assert [L for _, L in replayed] == snapshots
    for m in range(1, len(snapshots)):
        # below its floor a level's advance left the boundary as it was
        floor = replayed[m][0]
        assert snapshots[m][:floor] == snapshots[m - 1][:floor]


def test_replay_determinism():
    runs = [run_coupled_many([O, LatticeSite(6, 0)], 300, p=0.8, seed=9)
            for _ in range(2)]
    assert runs[0].r == runs[1].r
    assert runs[0].kappas == runs[1].kappas
    assert runs[0].switch_levels == runs[1].switch_levels


def test_structure_clauses_hold_on_sweep():
    unresolved = 0
    for rep in range(120):
        gap = (2, 6, 20)[rep % 3]
        run = run_coupled_many([O, LatticeSite(gap, 0)], 4000, p=0.8,
                               seed=31, replica=rep)
        report = check_coalescence_structure(run)
        if not report.resolved:
            unresolved += 1
            continue
        assert report.all_passed, (rep, report)
        kt = report.kappa
        assert kt.kappa_gamma_gamma <= kt.kappa_rr
    assert unresolved < 30


def test_checker_detects_corruption():
    run = run_coupled_many([O, LatticeSite(2, 0)], 500, p=0.8, seed=13)
    assert check_coalescence_structure(run).all_passed
    kt = run.kappas[(0, 1)]
    run.r[1][kt.kappa_rr + 20] += 2
    report = check_coalescence_structure(run)
    assert not report.boundary_merge.passed
    # clause 3 names the first level at which the two gammas differ
    run = run_coupled_many([O, LatticeSite(2, 0)], 500, p=0.8, seed=13)
    kgg = run.kappas[(0, 1)].kappa_gamma_gamma
    run.gamma[1][kgg + 20] += 2
    report = check_coalescence_structure(run)
    assert report.boundary_merge.passed
    assert report.gamma_merge.first_violation == ("gamma", kgg + 20)


def test_ordering_preserved_before_merge():
    for rep in range(40):
        run = run_coupled_many([O, LatticeSite(8, 0)], 2000, p=0.8, seed=77,
                               replica=rep)
        krr = run.kappas[(0, 1)].kappa_rr
        end = krr if krr is not None else 2000
        a = np.array(run.r[0][:end])
        b = np.array(run.r[1][:end])
        assert np.all(a < b)
        if krr is not None:
            assert np.all(np.array(run.r[0][krr:]) ==
                          np.array(run.r[1][krr:2001]))


def test_unequal_time_orientations_and_unstructured_guard():
    seen = set()
    for rep in range(60):
        run = run_coupled_many([O, LatticeSite(0, 2)], 1500, p=0.8, seed=17,
                               replica=rep)
        orientation = run.orientations[(0, 1)]
        seen.add(orientation)
        if orientation == "unstructured":
            with pytest.raises(PreconditionNotMetError):
                check_coalescence_structure(run)
        else:
            report = check_coalescence_structure(run)
            if report.resolved:
                assert report.all_passed, (rep, report)
    assert {"first_left", "second_left", "unstructured"} <= seen


def test_many_equal_starts_collapse():
    run = run_coupled_many([O, O, O], 100, p=0.8, seed=5)
    for pair, kt in run.kappas.items():
        assert kt.kappa_rr == 0
    assert run.r[0] == run.r[1] == run.r[2]


def test_many_triangle_bound():
    def resolved_or_inf(v):
        return float("inf") if v is None else v

    for rep in range(40):
        run = run_coupled_many([O, LatticeSite(4, 0), LatticeSite(10, 0)],
                               3000, p=0.8, seed=23, replica=rep)
        k12 = resolved_or_inf(run.kappas[(0, 1)].kappa_rr)
        k13 = resolved_or_inf(run.kappas[(0, 2)].kappa_rr)
        k23 = resolved_or_inf(run.kappas[(1, 2)].kappa_rr)
        assert k12 <= max(k13, k23)


def test_coupled_marginal_law_matches_standalone():
    n = 400
    coupled_end = []
    standalone_end = []
    for rep in range(400):
        run = run_coupled_many([O, LatticeSite(2, 0)], n, p=0.8, seed=3,
                               replica=rep)
        coupled_end.append(run.r[1][-1])
        solo = explore_to_level(LatticeSite(2, 0), n,
                                Config(101, 0.8, rep * 1024 + 2))
        standalone_end.append(solo.right[-1])
    d = scipy_stats.ks_2samp(coupled_end, standalone_end).statistic
    # two-sample 1% critical value: 1.628 * sqrt(2 / 400)
    assert d < 0.1152


def _family_values(xs, t0, level, cfg):
    """``r_x(level)`` of every cluster of the family, each run on ``cfg``."""
    return [explore_to_level(LatticeSite(x, t0), level, cfg).right[-1]
            for x in xs]


def test_family_eta_matches_value_count():
    xs = tuple(range(0, 13, 2))
    for rep in range(30):
        cfg = Config(41, 0.8, rep * 1024 + 1)
        values = _family_values(xs, 0, 200, cfg)
        assert values == sorted(values)
        eta = len(set(values))
        assert family_eta(xs, 0, 200, cfg) == eta
        for cap in (1, 2, 3):
            assert family_eta(xs, 0, 200, cfg, cap=cap) == min(eta, cap)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([0.65, 0.7, 0.8, 0.9, 1.0]),
       t0=st.integers(-3, 3),
       gaps=st.lists(st.integers(1, 4), max_size=15),
       level_above=st.integers(0, 300),
       cap=st.one_of(st.none(), st.integers(1, 4)))
def test_squeeze_count_equals_distinct_count(seed, p, t0, gaps, level_above,
                                             cap):
    # r_x(n) is non-decreasing in x on one configuration, so bisection
    # between merged ends finds every distinct value of the family, and so
    # does the chain, which counts the starts that never meet their left
    # neighbour
    xs = [t0 % 2]
    for g in gaps:
        xs.append(xs[-1] + 2 * g)
    level = t0 + level_above
    cfg = Config(seed, p, 1)
    values = _family_values(xs, t0, level, cfg)
    assert values == sorted(values)
    eta = len(set(values))
    expected = eta if cap is None else min(eta, cap)
    assert family_eta(xs, t0, level, cfg, cap=cap) == expected
    assert squeeze_reference(xs, t0, level, cfg, cap) == expected


def test_capped_chain_stops_at_its_cap():
    # any cap returns min(eta, cap), from the walks of the uncapped chain up
    # to the one that brings eta to the cap and no more; the batched
    # families count as one Config at a time does
    xs, etas = tuple(range(0, 30, 2)), []
    for rep in range(120):
        cfg = replica_config(5, 0.8, rep)
        [full] = _native.chain(xs, 0, 1000, 0.8, [cfg._base], None, 10_000)
        eta = family_eta(xs, 0, 1000, cfg)
        assert eta == 1 + full.count(-1)
        etas.append(eta)
        for cap in (1, 2, 3):
            [capped] = _native.chain(xs, 0, 1000, 0.8, [cfg._base], cap,
                                     10_000)
            cut = next((i for i in range(len(full) + 1)
                        if full[:i].count(-1) == cap - 1), len(full))
            assert capped == full[:cut] + [-2] * (len(full) - cut)
            assert family_eta(xs, 0, 1000, cfg, cap=cap) == min(eta, cap)
    assert sum(eta >= 2 for eta in etas) >= 30
    for cap in (1, 2, 3):
        assert family_etas(xs, 1000, 0.8, seed=5, first=0, count=120,
                           cap=cap) == [min(e, cap) for e in etas]


def test_family_rejects_bad_input():
    cfg = Config(1, 0.8, 1)
    for xs, level in (((), 10), ((2, 2), 10), ((4, 2), 10), ((0, 2), -1)):
        with pytest.raises(InvalidArgumentError):
            family_eta(xs, 0, level, cfg)
    with pytest.raises(InvalidArgumentError):
        family_eta((0, 2), 0, 10, cfg, cap=0)


def test_starts_off_the_even_lattice_are_rejected():
    # boundaries on the two sublattices never share a site, so the stop
    # rule does not apply to them
    with pytest.raises(InvalidSiteError):
        family_eta((0, 1), 0, 10, Config(1, 0.8, 1))
    with pytest.raises(InvalidSiteError):
        family_eta((0, 2), 1, 10, Config(1, 0.8, 1))
    with pytest.raises(InvalidSiteError):
        pair_merges(0, 3, 2000, 0.8, seed=3, first=0, count=10)


def test_shared_config_left_cluster_is_the_ledger_first_cluster():
    # the batteries' Config is the ledger's first stream, which cluster 0
    # reads alone, so its right boundary is the same integer sequence
    for rep in range(10):
        run = run_coupled_many([O, LatticeSite(6, 0)], 300, p=0.8, seed=29,
                               replica=rep)
        shared = explore_to_level(O, 300, replica_config(29, 0.8, rep))
        assert shared.right.tolist() == run.r[0]
        assert shared.left.tolist() == run.gamma[0].tolist()


def test_family_survival_agrees_with_pair_construction():
    # eta >= 2 for a two-cluster family on one configuration should match
    # non-coalescence of the ledger pair in distribution (different
    # constructions, same law)
    n, reps = 300, 400
    fam_hits = sum(
        family_eta((0, 6), 0, n, Config(19, 0.8, rep * 1024 + 1)) >= 2
        for rep in range(reps))
    pair_hits = 0
    for rep in range(reps):
        run = run_coupled_many([O, LatticeSite(6, 0)], n, p=0.8, seed=91,
                               replica=rep)
        pair_hits += run.kappas[(0, 1)].kappa_rr is None
    p1, p2 = fam_hits / reps, pair_hits / reps
    se = (p1 * (1 - p1) / reps + p2 * (1 - p2) / reps) ** 0.5
    assert abs(p1 - p2) < 4 * max(se, 0.01)


def test_survival_curve_shape():
    rows = coalescence_survival_curve(6, 0.8, 0.02, [0.01, 0.5, 2.0], 200,
                                      seed=15, sigma_hat=0.87, workers=2)
    by_t = {row["t"]: row for row in rows}
    assert by_t[0.01]["empirical_survival"] > 0.95
    assert by_t[0.01]["empirical_survival"] >= by_t[0.5]["empirical_survival"]
    assert by_t[0.5]["empirical_survival"] >= by_t[2.0]["empirical_survival"]
    assert all(row["n_replicas"] == 200 for row in rows)


def test_survival_curve_validates_gap():
    with pytest.raises(InvalidArgumentError):
        coalescence_survival_curve(3, 0.8, 0.1, [1.0], 10, seed=1,
                                   sigma_hat=0.9)


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
def test_batteries_reject_p_outside_the_unit_interval(p):
    # the batched pairs build no Config; lattice.edge_threshold checks p
    with pytest.raises(InvalidArgumentError, match="outside"):
        coalescence_survival_curve(6, p, 0.1, [1.0], 3, seed=1,
                                   sigma_hat=0.9)
    with pytest.raises(InvalidArgumentError, match="outside"):
        b1_battery(p, 0.1, 1.0, [0.5], 3, sigma_hat=0.9)


def test_pair_merges_join_their_ranges_in_order():
    # one range on one worker, eight on two, joined in order
    one = pair_merges(0, 6, 200, 0.8, seed=4, first=2, count=13)
    two = pair_merges(0, 6, 200, 0.8, seed=4, first=2, count=13, workers=2)
    assert one == two
    assert one == [pair_merges(0, 6, 200, 0.8, seed=4, first=2 + k,
                               count=1)[0] for k in range(13)]
    with pytest.raises(InvalidArgumentError):
        pair_merges(6, 6, 200, 0.8, seed=4, first=0, count=1)
    with pytest.raises(InvalidArgumentError):
        pair_merges(0, 6, -1, 0.8, seed=4, first=0, count=1)


@pytest.mark.parametrize("run", [
    lambda: family_etas(tuple(range(0, 16, 2)), 200, 0.8, seed=3, first=0,
                        count=4),
    lambda: pair_merges(0, 6, 300, 0.8, seed=3, first=0, count=1),
    lambda: run_coupled_many([O, LatticeSite(6, 0)], 300, p=0.8, seed=3),
    lambda: run_coupled_many([O, LatticeSite(4, 0), LatticeSite(8, 0)], 200,
                             p=0.8, seed=3),
    lambda: explore_to_level(O, 300, Config(3, 0.8, 1)).left,
], ids=["family", "survival_pair", "full_pair", "many", "explore"])
def test_finished_coupling_leaves_no_reference_cycles(run):
    # a finished run is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
