import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opweb.errors import BoxTooNarrowError, InvalidArgumentError, NoPathError
from opweb.explore import explore_to_level
from opweb.lattice import (Config, LatticeSite, STREAMS_PER_REPLICA,
                           replica_config)
from opweb.oracle import (BoxConfig, box_ladder, cbm_baseline, check_suite,
                          coalescing_walk_survival, dp_right_boundary,
                          dp_rightmost_path, gap_walk_survival_exact)

ERF_HALF = 0.5204998778130465  # math.erf(0.5)


def test_dp_all_open():
    box = BoxConfig(Config(1, 1.0, 1), -20, 14, 0, 10)
    dp = dp_right_boundary(box, 0, 10)
    assert dp.dead_from is None
    assert list(dp.values) == list(range(11))
    assert list(dp_rightmost_path(box, 0, 10)) == list(range(11))


def test_dp_all_closed_reports_dead():
    box = BoxConfig(Config(1, 0.0, 1), -20, 14, 0, 10)
    dp = dp_right_boundary(box, 0, 10)
    assert dp.dead_from == 1
    assert list(dp.values) == [0]
    with pytest.raises(NoPathError):
        dp_rightmost_path(box, 0, 10)


def test_degenerate_box_rejected():
    with pytest.raises(InvalidArgumentError):
        BoxConfig(Config(1, 0.5, 1), 5, 5, 0, 4)


def test_forced_corridor():
    # hand-built 4-level configuration with exactly one open path
    box = BoxConfig(Config(1, 0.0, 1), -10, 10, 0, 4)
    corridor = [(0, 0, 1), (1, 1, 0), (0, 2, 1), (1, 3, 0)]
    for x, t, d in corridor:
        arr = box.open_ur if d == 1 else box.open_ul
        arr[t, x - box.x_min] = True
    assert list(dp_rightmost_path(box, 0, 4)) == [0, 1, 0, 1, 0]
    dp = dp_right_boundary(box, 0, 4)
    assert list(dp.values) == [0, 1, 0, 1, 0]


def test_numpy_integer_bounds_give_the_same_dp():
    # a box wider than 64 columns with int64 bounds, as computed from a
    # walk's arrays
    cfg = Config(1, 0.8, 1)
    plain = BoxConfig(cfg, -80, 12, 0, 10)
    wide = BoxConfig(cfg, np.int64(-80), np.int64(12), np.int64(0),
                     np.int64(10))
    assert (list(dp_right_boundary(wide, 0, 10).values)
            == list(dp_right_boundary(plain, 0, 10).values))
    assert (list(dp_rightmost_path(wide, 0, 10))
            == list(dp_rightmost_path(plain, 0, 10)))


def test_right_wall_guard():
    with pytest.raises(BoxTooNarrowError):
        dp_right_boundary(BoxConfig(Config(1, 1.0, 1), -6, 6, 0, 10), 0, 10)


def test_left_wall_certificate_trips_when_seeds_truncated():
    # a box hugging the start from the left cannot certify the right
    # boundary at supercritical p: influence may enter past the wall
    cfg = Config(31, 0.8, 1)
    tripped = 0
    for stream in range(1, 40):
        box = BoxConfig(Config(31, 0.8, stream), -2, 40, 0, 30)
        try:
            dp_right_boundary(box, 0, 30)
        except BoxTooNarrowError:
            tripped += 1
    assert tripped > 0


def _walk(cfg, n):
    """The explored right boundary and rightmost path from (0, 0)."""
    cluster = explore_to_level(LatticeSite(0, 0), n, cfg)
    return (np.asarray(cluster.right_values, dtype=np.int64),
            np.asarray(cluster.left_values, dtype=np.int64))


def test_oracle_matches_exploration():
    # at n = 30 the ladder has two boxes, 64 and 2n + 64 columns left of
    # the path; each must certify the walk on its own
    for rep in range(50):
        cfg = Config(42, 0.8, (rep + 1) * 1024)
        right, left = _walk(cfg, 30)
        boxes = list(box_ladder(cfg, 30, left, right, 64))
        assert [min(left.min(), 0) - b.x_min for b in boxes] == [64, 124]
        for box in boxes:
            dp = dp_right_boundary(box, 0, 30)
            assert dp.dead_from is None
            assert list(dp.values) == list(right)
            assert list(dp_rightmost_path(box, 0, 30)) == list(left)


def test_box_statuses_match_lattice_oracle():
    # both row parities: the even columns of row 0 start at x_min or x_min+1
    from opweb.lattice import edge_status_array
    for p in (0.0, 0.6, 1.0):
        for x_min, t_min in ((-4, 0), (-3, 0), (-4, 1), (-3, 1)):
            cfg = Config(7, p, 5)
            box = BoxConfig(cfg, x_min, x_min + 10, t_min, t_min + 5)
            for t in range(t_min, t_min + 5):
                for x in range(x_min, x_min + 11):
                    cell = (t - t_min, x - x_min)
                    if (x + t) % 2:
                        assert not box.open_ur[cell] and not box.open_ul[cell]
                        continue
                    ur = edge_status_array(cfg, [x], [t], [1])[0]
                    ul = edge_status_array(cfg, [x], [t], [0])[0]
                    assert box.open_ur[cell] == ur
                    assert box.open_ul[cell] == ul
                wall = (x_min - 1 + t) % 2 == 0 and edge_status_array(
                    cfg, [x_min - 1], [t], [1])[0]
                assert box.entry_open[t - t_min] == wall


def test_reachability_monotone_under_edge_opening():
    # opening any closed edge can only push right boundaries rightward
    rng = np.random.default_rng(2)
    for rep in range(25):
        cfg = Config(60, 0.7, (rep + 1) * 13)
        box = BoxConfig(cfg, -40, 24, 0, 16)
        base = dp_right_boundary(box, 0, 16)
        closed = np.argwhere(~box.open_ur[:, :40])
        t, xi = closed[rng.integers(len(closed))]
        box.open_ur[t, xi] = True
        flipped = dp_right_boundary(box, 0, 16)
        m = min(len(base.values), len(flipped.values))
        assert np.all(flipped.values[:m] >= base.values[:m])
        assert len(flipped.values) >= len(base.values)


def test_cbm_baseline_limits_and_value():
    assert cbm_baseline(1.0, 1e6) < 1e-3
    assert cbm_baseline(1e6, 1.0) > 1 - 1e-12
    assert cbm_baseline(1.0, 1.0) == pytest.approx(ERF_HALF, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        cbm_baseline(0.0, 1.0)


def test_gap_walk_exact_matches_erf():
    assert gap_walk_survival_exact(48, 48 * 48) == pytest.approx(ERF_HALF,
                                                                 abs=1e-3)


def test_walk_oracle_validates_baseline():
    walk = coalescing_walk_survival(1.0, 1.0)
    assert abs(walk - cbm_baseline(1.0, 1.0)) < 0.01
    walk2 = coalescing_walk_survival(2.0, 0.5)
    assert abs(walk2 - cbm_baseline(2.0, 0.5)) < 0.01


def test_check_suite_passes_and_reports_injected_fault():
    clean = check_suite([0.7, 0.9], 5, 30, 42)
    assert not clean["failures"]
    assert clean["p0_agreement"]
    faulty = check_suite([0.7, 0.9], 5, 30, 42, corrupt_run=7)
    assert len(faulty["failures"]) == 1
    assert faulty["failures"][0] == {"p": 0.9, "replica": 2,
                                     "kind": "right_boundary_mismatch"}


def test_check_suite_rejects_a_repeated_p():
    # one tally per p: a repeated p would count its runs twice over
    with pytest.raises(InvalidArgumentError, match="distinct"):
        check_suite([0.8, 0.8], 2, 20, 4)


def _record_boxes(monkeypatch):
    """The boxes the oracle builds, and the boxes it builds tables on."""
    from opweb import oracle
    built, tabled = [], []

    class Recorded(oracle.BoxConfig):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    reach = oracle._reach_tables

    def recording(box, *args):
        tabled.append(box)
        return reach(box, *args)

    monkeypatch.setattr(oracle, "BoxConfig", Recorded)
    monkeypatch.setattr(oracle, "_reach_tables", recording)
    return built, tabled


def test_check_worker_builds_reach_tables_once_per_rung(monkeypatch):
    from opweb import oracle
    built, tabled = _record_boxes(monkeypatch)
    for corrupt, outcome in ((False, "ok"), (True, "right_boundary_mismatch")):
        built.clear()
        tabled.clear()
        job = (Config(3, 0.8, 1024), 40, 64, corrupt)
        assert oracle._check_worker(job) == outcome
        assert len(built) == 1 and tabled == built


def test_check_dp_walks_certify_on_the_first_box(monkeypatch):
    # the benchmark's check-dp call at seed 1001: every walk is judged on
    # one box of at most (r.max() - min(l.min(), 0) + 67) * n edges
    from opweb import oracle
    built, tabled = _record_boxes(monkeypatch)
    n = 500
    for idx, p in enumerate((0.7, 0.7, 0.8, 0.8, 0.9, 0.9)):
        cfg = replica_config(1001, p, idx)
        built.clear()
        tabled.clear()
        assert oracle._check_worker((cfg, n, 64, False)) == "ok"
        right, left = _walk(cfg, n)
        (box,) = built
        assert tabled == [box]
        edges = (box.x_max - box.x_min + 1) * (box.t_max - box.t_min)
        assert edges <= (right.max() - min(left.min(), 0) + 67) * n


@pytest.mark.parametrize("path_shift, boundary_shift, outcome, walls", [
    # the first box dies at level 89, the second holds the true path
    (100, 0, "left_boundary_mismatch", [(-266, 5), (-330, 5)]),
    # the first box refuses at level 89, the second holds the true path
    (120, 0, "left_boundary_mismatch", [(-246, 5), (-310, 5)]),
    # every box but the last touches its right wall
    (0, 2, "right_boundary_mismatch",
     [(-366, 3), (-430, 3), (-558, 3), (-566, 102)]),
])
def test_a_refused_box_widens(monkeypatch, path_shift, boundary_shift,
                              outcome, walls):
    # no true walk makes the first box refuse: a path from left of the
    # walk's path that ends right of it must cross it.  So the walk here
    # reports its path right of the true one, or its boundary left of it.
    # p = 0.6, stream 1024: the true path reaches column -302 and r.max() = 3.
    from opweb import oracle
    cfg = Config(0, 0.6, STREAMS_PER_REPLICA)
    right, left = _walk(cfg, 100)
    built, tabled = _record_boxes(monkeypatch)
    assert oracle._ladder_outcome(cfg, 100, right - boundary_shift,
                                  left + path_shift, 64) == outcome
    assert [(box.x_min, box.x_max) for box in built] == walls
    assert tabled == built


def test_check_reports_a_refused_box_as_a_failure_kind(monkeypatch):
    from opweb import oracle
    # slack = -2n - 1 puts the only box's left wall one column right of
    # each walk's path: at p = 0.6 four boxes refuse certification and one
    # dies with the walk's path outside it; none of them may escape as an
    # exception
    report = check_suite([0.6], 5, 100, 0, slack=-201)
    assert report["per_p"][0.6]["passed"] == 0
    assert [f["kind"] for f in report["failures"]] == ["box_too_narrow"] * 5
    assert report["p0_agreement"]

    def refuse(*args):
        raise BoxTooNarrowError("predecessor cell not certified")

    # a refusal while backtracking the path is the same failure kind
    monkeypatch.setattr(oracle, "_path_from_tables", refuse)
    job = (Config(3, 0.8, 1024), 40, 64, False)
    assert oracle._check_worker(job) == "box_too_narrow"


def test_dp_dead_only_for_a_walk_inside_the_box(monkeypatch):
    from opweb import oracle
    # p = 0.6, stream 1024: slack = -238 makes the only box [-264, 102]; it
    # dies at level 89 while the walk's path reaches column -302, left of
    # the box: the box cannot see it
    job = (Config(0, 0.6, STREAMS_PER_REPLICA), 100, -238, False)
    assert oracle._check_worker(job) == "box_too_narrow"
    _, left = _walk(Config(0, 0.6, STREAMS_PER_REPLICA), 100)
    assert left.min() == -302
    # a box that dies under a walk whose path it holds is a real failure
    ok_job = (Config(3, 0.8, 1024), 40, 64, False)
    assert oracle._check_worker(ok_job) == "ok"
    boundary = oracle._boundary_from_tables

    def dying(box, tables, n):
        dp = boundary(box, tables, n)
        return oracle.DpBoundary(dp.start_t, dp.values[:5], box.t_min + 5)

    monkeypatch.setattr(oracle, "_boundary_from_tables", dying)
    assert oracle._check_worker(ok_job) == "dp_dead"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 60),
       p=st.sampled_from([0.55, 0.6447, 0.7, 0.8, 0.9, 1.0]),
       stream=st.integers(1, 10**6), corrupt=st.booleans(), data=st.data())
def test_ladder_outcome_equals_the_full_box(n, p, stream, corrupt, data):
    # wherever the box [-2n - slack, n + 2] certifies, the ladder gives its
    # outcome, for the true walk and for walks that report their path too
    # far right or their right boundary too far left
    from opweb import oracle
    slack = data.draw(st.integers(-2 * n, 256), label="slack")
    cfg = Config(11, p, stream)
    right, left = _walk(cfg, n)
    if corrupt:
        right[n // 2] += 1
    path_shift = data.draw(st.integers(0, 8 - int(left.min())),
                           label="path_shift")
    boundary_shift = data.draw(st.integers(0, 4), label="boundary_shift")
    right = right - boundary_shift
    left = left + path_shift
    outcome = oracle._ladder_outcome(cfg, n, right, left, slack)
    if not path_shift and not boundary_shift:
        job = (cfg, n, slack, corrupt)
        assert oracle._check_worker(job) == outcome
    full = oracle._judge(BoxConfig(cfg, -2 * n - slack, n + 2, 0, n),
                         right, left, n)
    if full not in ("box_too_narrow", "dp_dead"):
        assert outcome == full


# -- numpy-row reference DP --------------------------------------------------
# One bool array per level, propagated cell-wise; the oracle's bit-row DP
# must give the same tables, answers and refusals.

def _propagate(reach, open_ur, open_ul):
    nxt = np.zeros_like(reach)
    nxt[1:] = reach[:-1] & open_ur[:-1]
    nxt[:-1] |= reach[1:] & open_ul[1:]
    return nxt


def _reference_tables(box, start_x, n):
    xs = np.arange(box.x_min, box.x_max + 1)
    seed = (xs <= start_x) & ((xs + box.t_min) % 2 == 0)
    lower = [seed]
    upper = [seed.copy()]
    for j in range(1, n + 1):
        lo = _propagate(lower[-1], box.open_ur[j - 1], box.open_ul[j - 1])
        hi = _propagate(upper[-1], box.open_ur[j - 1], box.open_ul[j - 1])
        if box.entry_open[j - 1]:
            hi[0] = True
        lower.append(lo)
        upper.append(hi)
        if hi[-1] or hi[-2]:
            raise BoxTooNarrowError("reachable set touched the right wall")
    return lower, upper


def _ref_max(row, x_min):
    idx = np.flatnonzero(row)
    return None if len(idx) == 0 else int(x_min + idx[-1])


def _reference_boundary(box, start_x, n):
    lower, upper = _reference_tables(box, start_x, n)
    values = []
    for j in range(n + 1):
        lo = _ref_max(lower[j], box.x_min)
        if lo != _ref_max(upper[j], box.x_min):
            raise BoxTooNarrowError("truncated vs pessimistic max")
        if lo is None:
            return values, box.t_min + j
        values.append(lo)
    return values, None


def _reference_path(box, start_x, n):
    lower, upper = _reference_tables(box, start_x, n)
    anchor = _ref_max(lower[n], box.x_min)
    top = _ref_max(upper[n], box.x_min)
    if anchor is None and top is None:
        raise NoPathError("no open path")
    if anchor is None or anchor != top:
        raise BoxTooNarrowError("top level not certified")
    path = [anchor]
    for j in range(n, 0, -1):
        y = path[-1]
        for cand, edge in ((y + 1, box.open_ul), (y - 1, box.open_ur)):
            ci = cand - box.x_min
            if not 0 <= ci < len(lower[j - 1]):
                continue
            if lower[j - 1][ci] != upper[j - 1][ci]:
                raise BoxTooNarrowError("predecessor not certified")
            if lower[j - 1][ci] and edge[j - 1][ci]:
                path.append(cand)
                break
        else:
            raise NoPathError("backtrack lost the path")
    return path[::-1]


def _outcome(fn, *args, view=lambda result: result):
    """The viewed result, or the type of the refusal."""
    try:
        return view(fn(*args))
    except (BoxTooNarrowError, NoPathError) as e:
        return type(e)


def _as_ints(tables):
    return tuple([sum(1 << int(i) for i in np.flatnonzero(row)) for row in rows]
                 for rows in tables)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([0.0, 0.5, 0.65, 0.8, 1.0]),
       stream=st.integers(0, 10**6),
       x_min=st.integers(-13, 0), t_min=st.integers(-3, 3),
       width=st.integers(1, 24), height=st.integers(1, 12),
       data=st.data())
def test_bit_row_dp_matches_numpy_rows(p, stream, x_min, t_min, width,
                                       height, data):
    from opweb.oracle import _reach_tables
    box = BoxConfig(Config(3, p, stream), x_min, x_min + width, t_min,
                    t_min + height)
    # edits made after construction must reach the DP, odd cells included
    for _ in range(data.draw(st.integers(0, 3))):
        arr = data.draw(st.sampled_from([box.open_ur, box.open_ul]))
        t = data.draw(st.integers(0, height - 1))
        x = data.draw(st.integers(0, width))
        arr[t, x] = not arr[t, x]
    start_x = data.draw(st.integers(x_min, x_min + width))
    n = data.draw(st.integers(0, height))

    args = (box, start_x, n)
    assert (_outcome(_reach_tables, *args, view=lambda tables: tables[:2])
            == _outcome(_reference_tables, *args, view=_as_ints))
    assert (_outcome(dp_right_boundary, *args,
                     view=lambda dp: (list(dp.values), dp.dead_from))
            == _outcome(_reference_boundary, *args))
    assert (_outcome(dp_rightmost_path, *args, view=list)
            == _outcome(_reference_path, *args))
