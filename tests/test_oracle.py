import itertools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opweb.errors import BoxTooNarrowError, InvalidArgumentError, NoPathError
from opweb.explore import explore_to_level
from opweb.lattice import (GOLDEN, MASK64, X_BIAS, Config, LatticeSite,
                           STREAMS_PER_REPLICA, _MIX1, _MIX2,
                           edge_status_array, edge_threshold, mix64,
                           replica_config)
from opweb.oracle import (OUTCOMES, BoxConfig, check_suite,
                          coalescing_walk_survival, dp_right_boundary,
                          dp_rightmost_path, gap_walk_survival_exact)
from opweb.stats import cbm_baseline

from _references import (FIRST_MARGIN, box_ladder, is_lattice_walk,
                         judge_reference, ladder_reference)

ERF_HALF = 0.5204998778130465  # math.erf(0.5)
GUARD = 10_000  # the scan guard of the check workers' walks


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
    # hand-built 4-level configuration with exactly one open path, on the
    # numpy-row reference DP
    box = _reference_box(BoxConfig(Config(1, 0.0, 1), -10, 10, 0, 4))
    corridor = [(0, 0, 1), (1, 1, 0), (0, 2, 1), (1, 3, 0)]
    for x, t, d in corridor:
        arr = box.open_ur if d == 1 else box.open_ul
        arr[t, x - box.x_min] = True
    assert list(_reference_path(box, 0, 4)) == [0, 1, 0, 1, 0]
    values, _ = _reference_boundary(box, 0, 4)
    assert list(values) == [0, 1, 0, 1, 0]


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
    b = explore_to_level(LatticeSite(0, 0), n, cfg)
    return b.right, b.left


def test_oracle_matches_exploration():
    # at n = 30 the ladder has six bands, 2, 4, 8, 16, 32 and 64 columns
    # left of the path, and the box 2n + 64 columns left of it; each must
    # certify the walk on its own
    for rep in range(50):
        cfg = Config(42, 0.8, (rep + 1) * 1024)
        right, left = _walk(cfg, 30)
        boxes = list(box_ladder(cfg, 30, left, right, 64))
        *bands, last = boxes
        assert [left[0] - b.x_min for b in bands] == [2, 4, 8, 16, 32, 64]
        for band in bands:
            assert list(band.shear) == list(left - left[0])
        assert min(left.min(), 0) - last.x_min == 124
        assert not any(last.shear)
        for box in boxes:
            dp = dp_right_boundary(box, 0, 30)
            assert dp.dead_from is None
            assert list(dp.values) == list(right)
            assert list(dp_rightmost_path(box, 0, 30)) == list(left)


def _lattice_statuses(cfg, lefts, t_min, width):
    """The box's three arrays, from `edge_status_array` site by site."""
    lefts = np.asarray(lefts)
    ts = t_min + np.arange(len(lefts) - 1)
    xs = lefts[:-1, None] + np.arange(width)
    tt = np.broadcast_to(ts[:, None], xs.shape)
    site = (xs + tt) % 2 == 0
    arrays = []
    for d in (1, 0):
        cells = np.zeros(xs.shape, dtype=bool)
        cells[site] = edge_status_array(cfg, xs[site], tt[site],
                                        np.full(site.sum(), d))
        arrays.append(cells)
    sources = lefts[:-1] - 1 - ((lefts[:-1] - 1 + ts) % 2)
    entry = [bool(source + 1 >= lefts[j + 1]
                  and edge_status_array(cfg, [source], [ts[j]], [1])[0])
             for j, source in enumerate(sources.tolist())]
    return (*arrays, np.array(entry, dtype=bool)), site


def _unshift(z, s):
    """The inverse of ``z ^ (z >> s)``."""
    x = z
    for _ in range(64 // s):
        x = z ^ (x >> s)
    return x


def _edge_hashed_to_the_top(seed):
    """A stream of ``seed`` and an up-right edge (x, t) whose hash under it
    is 2**64 - 1, the one value that no threshold passes: found by
    inverting `lattice.mix64` and the key's golden-ratio multiply."""
    z = _unshift(MASK64, 31)
    z = z * pow(_MIX2, -1, 1 << 64) & MASK64
    z = _unshift(z, 27)
    z = z * pow(_MIX1, -1, 1 << 64) & MASK64
    mixed = _unshift(z, 30)
    for stream in itertools.count():
        base = Config(seed, 0.0, stream)._base
        key = (mixed - base) * pow(GOLDEN, -1, 1 << 64) & MASK64
        x, q = (key & 0xFFFFFFFF) - X_BIAS, key >> 32
        t, d = q >> 1, q & 1
        if d == 1 and (x + t) % 2 == 0:
            assert mix64(base + key * GOLDEN) == MASK64
            return stream, x, t


def test_an_edge_hashed_to_the_top_is_open_at_p_one():
    # at p = 1 every edge is open, the one whose hash is 2**64 - 1 too,
    # in the box's cells and as its entry edge; just below p = 1 it is shut.
    # As a cell, its site x is seeded and its up-right edge carries the
    # lower table to x + 1, cell 3 of row 1; as the entry edge of a box
    # whose rows start at x + 1, it puts the upper table's row 1 at cell 0
    stream, x, t = _edge_hashed_to_the_top(11)
    for p in (1.0, 1 - 2.0**-53):
        cfg = Config(11, p, stream)
        lower, _ = _native_tables(BoxConfig(cfg, x - 2, x + 4, t, t + 1), x, 1)
        _, upper = _native_tables(BoxConfig(cfg, x + 1, x + 5, t, t + 1),
                                  x + 1, 1)
        assert lower[1] >> 3 & 1 == upper[1] & 1 == (p == 1.0)
        assert edge_status_array(cfg, [x], [t], [1])[0] == (p == 1.0)


def test_arrays_that_do_not_fit_the_box_never_reach_the_native_dp():
    # walls that step by two, a box one column wide and a box with no rows
    # are refused before the native DP reads them, walls set after the box
    # was built too
    from opweb import _native, oracle
    cfg = Config(7, 0.6, 5)
    for lefts, width in (([0, 2], 10), ([0, 1], 1), ([], 10)):
        with pytest.raises(InvalidArgumentError, match="do not fit"):
            _native.hashed_dp(lefts, 0, width, 0, cfg)
    box = BoxConfig(cfg, -10, 10, 0, 5)
    box.lefts = [-10, -10, -8, -8, -8, -8]
    with pytest.raises(InvalidArgumentError, match="do not fit"):
        dp_right_boundary(box, 0, 5)
    right = left = np.zeros(6, dtype=np.int64)
    with pytest.raises(InvalidArgumentError, match="do not fit"):
        judge_reference(box, right, left, 5)
    # nor do boundaries that are not one-dimensional int64 arrays reach the
    # native ladder
    for r, l in ((right.astype(np.int32), left), (right, left[None, :])):
        with pytest.raises(InvalidArgumentError, match="int64"):
            oracle._ladder_outcome(cfg, 5, r, l, 64)
    # a top moved after the box was built gives it no walls above level 5
    moved = BoxConfig(cfg, -10, 10, 0, 5)
    moved.t_max = 50
    assert dp_right_boundary(moved, 0, 5) == dp_right_boundary(
        BoxConfig(cfg, -10, 10, 0, 5), 0, 5)
    with pytest.raises(InvalidArgumentError, match="too short"):
        dp_right_boundary(moved, 0, 40)
    with pytest.raises(InvalidArgumentError, match="too short"):
        judge_reference(moved, np.zeros(41, dtype=np.int64),
                        np.zeros(41, dtype=np.int64), 40)


def test_arrays_put_in_a_box_are_judged_as_they_read():
    # read-only boundaries get the native ladder's verdict on its first
    # band, as writable ones do
    from opweb import oracle
    cfg = Config(3, 0.8, 1024)
    right, left = _walk(cfg, 40)
    frozen = [a.copy() for a in (right, left)]
    for a in frozen:
        a.flags.writeable = False
    for r, l in ((right, left), (right + 2, left), tuple(frozen)):
        box = next(box_ladder(cfg, 40, l, r, 64))
        want = judge_reference(box, r, l, 40)
        assert oracle._ladder_outcome(cfg, 40, r, l, 64) == want
        assert want in ("ok", "right_boundary_mismatch")
    # a dying box taller than the walk reads its whole wall: a path left of
    # it above level n refuses the box
    box = BoxConfig(Config(3, 0.0, 1024), -20, 20, 0, 12)
    path = -(np.arange(13, dtype=np.int64) % 2)
    for last, want in ((-19, "dp_dead"), (-30, "box_too_narrow")):
        path[12] = last
        assert judge_reference(box, path[:9], path, 8) == want


def test_a_shear_that_jumps_is_rejected():
    cfg = Config(7, 0.6, 5)
    for shear in ([0, 1, 3], [1, 1, 1], [0, 1]):
        with pytest.raises(InvalidArgumentError):
            BoxConfig(cfg, -4, 6, 0, 2, shear)


def test_reachability_monotone_under_edge_opening():
    # opening any closed edge can only push right boundaries rightward, on
    # the numpy-row reference DP, whose boundary before the edit is the
    # oracle's
    rng = np.random.default_rng(2)
    for rep in range(25):
        box = BoxConfig(Config(60, 0.7, (rep + 1) * 13), -40, 24, 0, 16)
        ref = _reference_box(box)
        base, _ = _reference_boundary(ref, 0, 16)
        assert base == dp_right_boundary(box, 0, 16).values
        closed = np.argwhere(~ref.open_ur[:, :40])
        t, xi = closed[rng.integers(len(closed))]
        ref.open_ur[t, xi] = True
        flipped, _ = _reference_boundary(ref, 0, 16)
        m = min(len(base), len(flipped))
        assert np.all(np.array(flipped[:m]) >= np.array(base[:m]))
        assert len(flipped) >= len(base)


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


def _dead_from_or_refusal(dead_from, *args):
    """The first empty level that ``dead_from`` gives, or its refusal's
    type and message."""
    try:
        return dead_from(*args)
    except (BoxTooNarrowError, NoPathError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 0.9, 1.0])
def test_the_p0_probe_is_the_dp_of_its_box(p):
    # check's p = 0 probe is dp_right_boundary on the box [-16, 8] x [0, 4]:
    # on hashed rows it gives the first empty level that the numpy-row
    # reference DP gives, or raises its refusal alike; on that box,
    # narrowed to [-16, 3] or [-16, 1], the wall refusals too
    seen = set()
    for box in ((-16, 8, 4), (-16, 3, 4), (-16, 1, 4)):
        x_min, x_max, n = box
        for seed in range(150):
            probe = BoxConfig(replica_config(seed, p, 3), x_min, x_max, 0, n)
            want = _outcome(_reference_boundary, _reference_box(probe), 0, n,
                            view=lambda boundary: boundary[1])
            got = _dead_from_or_refusal(
                lambda: dp_right_boundary(probe, 0, n).dead_from)
            assert (got[0] if type(got) is tuple else got) == want
            seen.add((box, got if type(got) is not tuple else got[1][:12]))
    # at p = 0 the box dies at level 1; at p = 0.3 it dies at levels 2 to
    # 4, lives, or has a level whose maxima differ; above, it lives
    kinds = {0.0: {1}, 0.3: {None, 2, 3, 4, "level 2: tru", "level 3: tru",
                             "level 4: tru"}}
    assert {got for box, got in seen if box == (-16, 8, 4)} == kinds.get(
        p, {None})
    assert ((-16, 1, 4), "seed row tou") in seen
    assert (((-16, 3, 4), "reachable se") in seen) == (p > 0)


def test_check_suite_rejects_a_repeated_p():
    # one tally per p: a repeated p would count its runs twice over
    with pytest.raises(InvalidArgumentError, match="distinct"):
        check_suite([0.8, 0.8], 2, 20, 4)


def _native_ladder(cfg, n, right, left, slack):
    """The boxes that `_native.judge_walk` judged, as `ladder_reference`
    gives them, after checking that its code is the last box's verdict."""
    from opweb import _native
    code, boxes = _native.judge_walk(cfg, n, right, left, slack)
    assert boxes and code == boxes[-1][3]
    return [(*box[:3], OUTCOMES[box[3]]) for box in boxes]


def _record_boxes(monkeypatch):
    """The boxes that the oracle's calls of `_native.judge_walk`, one per
    walk, and of `_native.check_walks`, one per batch of walks, report
    judging, built as `BoxConfig`s, and those of them on which
    `judge_reference` gives the verdict that the call reports.  A batch
    reports each walk's verdict and count of boxes: its boxes are the first
    ones of `box_ladder` on the walk, and each but the last must refuse or
    die."""
    from opweb import _native
    built, tabled = [], []
    judge_walk, check_walks = _native.judge_walk, _native.check_walks

    def recording(cfg, n, right, left, slack):
        code, boxes = judge_walk(cfg, n, right, left, slack)
        for x_min, x_max, band, verdict in boxes:
            box = BoxConfig(cfg, x_min, x_max, 0, n,
                            left - left[0] if band else None)
            built.append(box)
            if judge_reference(box, right, left, n) == OUTCOMES[verdict]:
                tabled.append(box)
        return code, boxes

    def recording_batch(bases, p, n, slack, corrupt, scan_guard):
        verdicts, counts = check_walks(bases, p, n, slack, corrupt,
                                       scan_guard)
        for i, (verdict, count) in enumerate(zip(verdicts, counts)):
            cfg = SimpleNamespace(_base=int(bases[i]),
                                  _threshold=edge_threshold(p))
            right, left = _walk(cfg, n)
            right[n // 2] += i == corrupt
            ladder = box_ladder(cfg, n, left, right, slack)
            for k, box in zip(range(count), ladder):
                built.append(box)
                want = ([OUTCOMES[verdict]] if k == count - 1
                        else ["box_too_narrow", "dp_dead"])
                if judge_reference(box, right, left, n) in want:
                    tabled.append(box)
        return verdicts, counts

    monkeypatch.setattr(_native, "judge_walk", recording)
    monkeypatch.setattr(_native, "check_walks", recording_batch)
    return built, tabled


def _check_one(cfg, n, slack, corrupt, scan_guard):
    """The outcome of ``check`` on the walk of one configuration: a batch
    of its one base."""
    from opweb import oracle
    return oracle._judged_walks([cfg._base], cfg.p, n, slack,
                                0 if corrupt else -1, scan_guard)[0]


def test_check_builds_reach_tables_once_per_rung(monkeypatch):
    built, tabled = _record_boxes(monkeypatch)
    for corrupt, outcome in ((False, "ok"), (True, "right_boundary_mismatch")):
        built.clear()
        tabled.clear()
        job = (Config(3, 0.8, 1024), 40, 64, corrupt, GUARD)
        assert _check_one(*job) == outcome
        assert len(built) == 1 and tabled == built


def test_check_dp_walks_certify_on_the_first_box(monkeypatch):
    # the benchmark's check-dp call at seed 1001: every walk is judged on
    # the first band, of at most (max(r - l) + m + 3) * n edges
    built, tabled = _record_boxes(monkeypatch)
    n = 500
    for idx, p in enumerate((0.7, 0.7, 0.8, 0.8, 0.9, 0.9)):
        cfg = replica_config(1001, p, idx)
        built.clear()
        tabled.clear()
        assert _check_one(cfg, n, 64, False, GUARD) == "ok"
        right, left = _walk(cfg, n)
        (box,) = built
        assert tabled == [box]
        assert box.x_min == left[0] - FIRST_MARGIN
        assert list(box.shear) == list(left - left[0])
        edges = (box.x_max - box.x_min + 1) * (box.t_max - box.t_min)
        assert edges <= ((right - left).max() + FIRST_MARGIN + 3) * n


@pytest.mark.parametrize("path_shift, boundary_shift, outcome, walls", [
    # each reported walk crosses its own reported boundary, so the ladder
    # skips its bands and judges it on the last box alone
    (100, 0, "left_boundary_mismatch", [(-466, 102)]),
    (120, 0, "left_boundary_mismatch", [(-446, 102)]),
    (0, 2, "right_boundary_mismatch", [(-566, 102)]),
])
def test_a_refused_box_widens(monkeypatch, path_shift, boundary_shift,
                              outcome, walls):
    # no true walk makes the first band refuse: a path from left of the
    # walk's path that ends right of it must cross it.  So the walk here
    # reports its path right of the true one, or its boundary left of it.
    # p = 0.6, stream 1024: the true path reaches column -302, r.max() = 3
    # and the path meets the boundary at some level.
    from opweb import oracle
    cfg = Config(0, 0.6, STREAMS_PER_REPLICA)
    right, left = _walk(cfg, 100)
    built, tabled = _record_boxes(monkeypatch)
    assert oracle._ladder_outcome(cfg, 100, right - boundary_shift,
                                  left + path_shift, 64) == outcome
    assert [(box.x_min, box.x_max) for box in built] == walls
    assert tabled == built


def _under(right):
    """The rightmost lattice path that stays at or left of ``right``."""
    j = np.arange(len(right))
    return (right[None, :] + np.abs(j[:, None] - j[None, :])).min(axis=1)


def test_a_refused_band_widens(monkeypatch):
    # a walk that reports its path hugging its right boundary: the bands of
    # margin 2 to 64 lose the true path at p = 0.6 and refuse, and the band
    # of margin 128 holds it and certifies the mismatch
    from opweb import oracle
    cfg = Config(0, 0.6, STREAMS_PER_REPLICA)
    right, left = _walk(cfg, 100)
    hugging = np.maximum(left, _under(right))
    assert hugging[0] == -192 and (hugging - left).max() == 102
    built, tabled = _record_boxes(monkeypatch)
    assert (oracle._ladder_outcome(cfg, 100, right, hugging, 64)
            == "left_boundary_mismatch")
    assert [(box.x_min, box.x_max) for box in built] == [
        (-194, 28), (-196, 28), (-200, 28), (-208, 28), (-224, 28),
        (-256, 28), (-320, 28)]
    for box in built:
        assert list(box.shear) == list(hugging - hugging[0])
    assert tabled == built
    outcomes = [judge_reference(box, right, hugging, 100) for box in built]
    assert outcomes == ["box_too_narrow"] * 6 + ["left_boundary_mismatch"]


def _malformed(right, left):
    """Four reports made from a true walk that are not walks."""
    n = len(left) - 1
    downs = np.flatnonzero(np.diff(left) == -1)
    jump = left.copy()
    if len(downs):
        jump[downs[0] + 1:] -= 2  # a step of -3
    else:
        jump[1:] += 2  # a step of +3
    return {
        "step": (right, jump),
        "start": (right + 2, left + 2 - left[0]),  # starts at (2, 0)
        "parity": (right, left - 1),
        "crossing": (np.minimum(right,
                                left - 2 * (np.arange(n + 1) == n // 2)),
                     left),
    }


def _malformed_walks():
    """A true walk at p = 0.8, then four reports that are not walks."""
    cfg = Config(3, 0.8, 1024)
    right, left = _walk(cfg, 40)
    return cfg, right, _malformed(right, left)


@pytest.mark.parametrize("kind", ["step", "start", "parity", "crossing"])
def test_a_malformed_walk_is_judged_on_the_last_box(monkeypatch, kind):
    # a reported path with a step of +-3, a start right of 0 or odd parity,
    # or a boundary left of the path, gets no band: it is judged on the
    # last box alone, and never escapes as an exception
    from opweb import oracle
    cfg, _, walks = _malformed_walks()
    right, left = walks[kind]
    assert not is_lattice_walk(left, right, 40)
    built, tabled = _record_boxes(monkeypatch)
    outcome = oracle._ladder_outcome(cfg, 40, right, left, 64)
    (box,) = built
    assert (box.x_min, box.x_max) == (min(left.min(), 0) - 144, 42)
    assert tabled == [box]
    assert outcome == judge_reference(box, right, left, 40)
    assert outcome in ("right_boundary_mismatch", "left_boundary_mismatch")


def test_check_reports_a_refused_box_as_a_failure_kind(monkeypatch):
    # slack = -2n - 1 puts the only box's left wall one column right of
    # each walk's path: at p = 0.6 four boxes refuse certification and one
    # dies with the walk's path outside it; none of them may escape as an
    # exception
    report = check_suite([0.6], 5, 100, 0, slack=-201)
    assert report["per_p"][0.6]["passed"] == 0
    assert [f["kind"] for f in report["failures"]] == ["box_too_narrow"] * 5
    assert report["p0_agreement"]

    from opweb import _native
    check_walks = _native.check_walks
    narrow = OUTCOMES.index("box_too_narrow")
    cfg = Config(3, 0.8, 1024)
    right, left = _walk(cfg, 40)
    ladder = list(box_ladder(cfg, 40, left, right, 64))

    def refuse(*args):
        verdicts, counts = check_walks(*args)
        assert verdicts == [0] and counts == [1]
        return [narrow], [len(ladder)]

    # a walk whose every box refuses, the last one on its right wall, is
    # the same failure kind
    monkeypatch.setattr(_native, "check_walks", refuse)
    assert _check_one(cfg, 40, 64, False, GUARD) == "box_too_narrow"


def test_a_slack_below_minus_2n_keeps_the_start_in_the_box():
    # at p = 0.9 these walks' paths stay at or right of column 0, so a
    # left wall 2n + slack columns left of them would lie right of the
    # start; the last box keeps column 0, where the walks certify
    report = check_suite([0.9], 3, 100, 0, slack=-300)
    assert report["per_p"][0.9] == {"passed": 3, "total": 3}


def test_dp_dead_only_for_a_walk_inside_the_box(monkeypatch):
    from opweb import oracle
    # p = 0.6, stream 1024: slack = -238 makes the only box [-264, 102]; it
    # dies at level 89 while the walk's path reaches column -302, left of
    # the box: the box cannot see it
    job = (Config(0, 0.6, STREAMS_PER_REPLICA), 100, -238, False, GUARD)
    assert _check_one(*job) == "box_too_narrow"
    _, left = _walk(Config(0, 0.6, STREAMS_PER_REPLICA), 100)
    assert left.min() == -302
    ok_job = (Config(3, 0.8, 1024), 40, 64, False, GUARD)
    assert _check_one(*ok_job) == "ok"
    # a box that dies under a walk whose path it holds is a real failure:
    # at p = 0.3, stream 3, every box of the ladder of a report whose path
    # zigzags between columns 0 and -1 dies below level 40
    n, cfg = 40, Config(3, 0.3, 3)
    zigzag = -(np.arange(n + 1, dtype=np.int64) % 2)
    built, tabled = _record_boxes(monkeypatch)
    assert oracle._ladder_outcome(cfg, n, zigzag, zigzag, 64) == "dp_dead"
    assert [(box.x_min, box.x_max) for box in built] == [
        (-2, 2), (-4, 2), (-8, 2), (-16, 2), (-32, 2), (-64, 2), (-128, 2),
        (-145, 42)]
    assert tabled == built
    assert all(dp_right_boundary(box, 0, n).dead_from for box in built)


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
        assert _check_one(cfg, n, slack, corrupt, GUARD) == outcome
    full = judge_reference(BoxConfig(cfg, -2 * n - slack, n + 2, 0, n),
                           right, left, n)
    if full not in ("box_too_narrow", "dp_dead"):
        assert outcome == full


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 60),
       p=st.sampled_from([0.55, 0.6447, 0.7, 0.8, 0.9, 1.0]),
       stream=st.integers(1, 10**6), corrupt=st.booleans(), data=st.data())
def test_band_ladder_outcome_equals_the_full_box(n, p, stream, corrupt, data):
    # wherever the box [-2n - 64, n + 2] certifies, the ladder of bands gives
    # its outcome, for the true walk, a boundary corrupted at n // 2, and
    # walks that report their path too far right or their boundary too far
    # left; the true walk is judged on the first band
    from opweb import oracle
    cfg = Config(13, p, stream)
    right, left = _walk(cfg, n)
    if corrupt:
        right[n // 2] += 1
    path_shift = data.draw(st.integers(0, 8 - int(left.min())),
                           label="path_shift")
    boundary_shift = data.draw(st.integers(0, 4), label="boundary_shift")
    right = right - boundary_shift
    left = left + path_shift
    with pytest.MonkeyPatch.context() as patch:
        built, tabled = _record_boxes(patch)
        outcome = oracle._ladder_outcome(cfg, n, right, left, 64)
    assert tabled == built
    full = judge_reference(BoxConfig(cfg, -2 * n - 64, n + 2, 0, n),
                           right, left, n)
    if full not in ("box_too_narrow", "dp_dead"):
        assert outcome == full
    if not corrupt and not path_shift and not boundary_shift:
        assert outcome == "ok"
        (band,) = built
        assert band.x_min == left[0] - FIRST_MARGIN
        assert list(band.shear) == list(left - left[0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 60),
       p=st.sampled_from([0.55, 0.6447, 0.7, 0.8, 0.9, 1.0]),
       stream=st.integers(1, 10**6),
       kind=st.sampled_from(["true", "corrupt", "top", "short_r", "short_l",
                             "shift", "step", "start", "parity",
                             "crossing"]),
       data=st.data())
def test_the_native_rung_judge_equals_the_reference(n, p, stream, kind,
                                                    data):
    # judge_walk gives the boxes and the outcomes of the Python ladder on
    # every rung: for the true walk, r corrupted at n // 2 or at n, r or l a
    # level short, a path moved right or a boundary moved left, and the four
    # reports that are not walks;
    # slack below -2n makes boxes refuse and die, and on p = 0 boxes every
    # DP dies at level 1, where the path's NoPathError still escapes
    cfg = Config(17, p, stream)
    right, left = _walk(cfg, n)
    if kind == "corrupt":
        right[n // 2] += 1
    elif kind == "top":
        right[n] += 2
    elif kind == "short_r":
        right = right[:-1]
    elif kind == "short_l":
        left = left[:-1]
    elif kind == "shift":
        left = left + data.draw(st.integers(0, 8 - int(left.min())),
                                label="path_shift")
        right = right - data.draw(st.integers(0, 4), label="boundary_shift")
    elif kind != "true":
        right, left = _malformed(right, left)[kind]
    slack = data.draw(st.one_of(st.integers(-2 * n - 40, -2 * n),
                                st.integers(-2 * n, 128)), label="slack")
    if data.draw(st.booleans(), label="closed"):
        cfg = Config(17, 0.0, stream)
        box = BoxConfig(cfg, -2, 2, 0, n)
        assert dp_right_boundary(box, 0, n).dead_from == 1
        with pytest.raises(NoPathError, match="no open path"):
            dp_rightmost_path(box, 0, n)
    assert (_native_ladder(cfg, n, right, left, slack)
            == ladder_reference(cfg, n, right, left, slack))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 60),
       p=st.sampled_from([0.55, 0.6447, 0.7, 0.8, 0.9, 1.0]),
       stream=st.integers(1, 10**6),
       kind=st.sampled_from(["true", "corrupt", "path_shift",
                             "boundary_shift", "step", "start", "parity",
                             "crossing"]),
       data=st.data())
def test_judge_walk_equals_the_reference_ladder(n, p, stream, kind, data):
    # one call of judge_walk lays the boxes of the reference box_ladder,
    # walls and shear, and gives judge_reference's outcome on each of them
    # up to the first that certifies, and that one's outcome for the walk:
    # for the true walk, r corrupted at n // 2, a path moved right, a
    # boundary moved left and the four reports that are not walks
    from opweb import oracle
    cfg = Config(19, p, stream)
    right, left = _walk(cfg, n)
    if kind == "corrupt":
        right[n // 2] += 1
    elif kind == "path_shift":
        left = left + data.draw(st.integers(1, 8 - int(left.min())),
                                label="path_shift")
    elif kind == "boundary_shift":
        right = right - data.draw(st.integers(1, 4), label="boundary_shift")
    elif kind != "true":
        right, left = _malformed(right, left)[kind]
    slack = data.draw(st.integers(-2 * n, 256), label="slack")
    judged = ladder_reference(cfg, n, right, left, slack)
    assert _native_ladder(cfg, n, right, left, slack) == judged
    assert oracle._ladder_outcome(cfg, n, right, left, slack) == judged[-1][3]
    if kind == "true":
        assert judged[-1][3] == "ok"


_WIDE_BOX = """
import resource
from opweb import _native
from opweb.explore import explore_to_level
from opweb.lattice import LatticeSite, replica_config
from opweb.oracle import BoxConfig, dp_right_boundary, dp_rightmost_path
# the last rung of check's ladder at n = 2000 with the default slack of 64
n = 2000
cfg = replica_config(1001, 0.7, 0)
walk = explore_to_level(LatticeSite(0, 0), n, cfg)
box = BoxConfig(cfg, min(int(walk.left.min()), 0) - 2 * n - 64, n + 2, 0, n)
ok = (dp_right_boundary(box, 0, n).values == walk.right.tolist()
      and dp_rightmost_path(box, 0, n) == walk.left.tolist())
print(_native.load() is not None, (n, box.x_max - box.x_min + 1),
      "ok" if ok else "wrong")
try:  # the peak of this process alone: ru_maxrss also holds the parent's
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak // 1024)
"""


def test_the_widest_box_stays_small():
    # 6067 columns by 2000 rows: the DP's two tables of bit rows take 3 MB,
    # and no edge is stored; a numpy fill of the box's edges peaked near
    # 330 MB
    from opweb import _native
    src = Path(_native.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _WIDE_BOX], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    judged, max_rss_mb = done.stdout.splitlines()
    assert judged == "True (2000, 6067) ok"
    # 35 MB measured on x86-64 Linux with CPython 3.11 and numpy 2, most of
    # it the walk's import of numpy; the bound leaves that much again
    assert int(max_rss_mb) < 70


def test_a_seed_on_the_right_wall_is_refused():
    # a seed in the two rightmost columns can leave the box at once, by an
    # up-right edge that may be open: the box is refused before any edge is
    # read, even at p = 0
    box = BoxConfig(Config(1, 0.0, 1), -10, 0, 0, 2)
    with pytest.raises(BoxTooNarrowError, match="seed row"):
        dp_right_boundary(box, 0, 2)


# -- numpy-row reference DP --------------------------------------------------
# One bool array per level, propagated cell-wise, on a box's cells read from
# `edge_status_array`; the oracle's DP, dp_box of _walk.c on hashed rows,
# must give the same tables, answers and refusals.

def _reference_box(box):
    """The box of the reference DP: ``box``'s bounds and walls, and its
    cells' edge statuses in three numpy arrays, which a test may edit."""
    width = box.x_max - box.x_min + 1
    (open_ur, open_ul, entry_open), _ = _lattice_statuses(
        box.cfg, box.lefts, box.t_min, width)
    return SimpleNamespace(cfg=box.cfg, x_min=box.x_min, x_max=box.x_max,
                           t_min=box.t_min, lefts=np.array(box.lefts),
                           open_ur=open_ur, open_ul=open_ul,
                           entry_open=entry_open)


def _propagate(reach, open_ur, open_ul, step):
    """Row j's reach carried to row j + 1, whose left wall sits ``step``
    columns right of row j's."""
    nxt = np.zeros_like(reach)
    for src, move in ((reach & open_ur, 1), (reach & open_ul, -1)):
        idx = np.flatnonzero(src) + move - step
        nxt[idx[(idx >= 0) & (idx < len(nxt))]] = True
    return nxt


def _entries(box, j):
    """Columns of row j + 1 hit by an open edge from a site left of row j,
    on the lattice."""
    t = box.t_min + j
    hit = []
    for x in range(box.lefts[j] - 4, box.lefts[j]):
        if (x + t) % 2:
            continue
        for d, move in ((1, 1), (0, -1)):
            col = x + move - box.lefts[j + 1]
            if col >= 0 and edge_status_array(box.cfg, [x], [t], [d])[0]:
                hit.append(col)
    return hit


def _reference_tables(box, start_x, n):
    xs = box.lefts[0] + np.arange(box.x_max - box.x_min + 1)
    seed = (xs <= start_x) & ((xs + box.t_min) % 2 == 0)
    lower = [seed]
    upper = [seed.copy()]
    if seed[-1] or seed[-2]:
        raise BoxTooNarrowError("seed row touched the right wall")
    for j in range(1, n + 1):
        step = box.lefts[j] - box.lefts[j - 1]
        lo = _propagate(lower[-1], box.open_ur[j - 1], box.open_ul[j - 1], step)
        hi = _propagate(upper[-1], box.open_ur[j - 1], box.open_ul[j - 1], step)
        if box.entry_open[j - 1]:
            hi[(box.lefts[j] + box.t_min + j) % 2] = True
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
        lo = _ref_max(lower[j], box.lefts[j])
        if lo != _ref_max(upper[j], box.lefts[j]):
            raise BoxTooNarrowError("truncated vs pessimistic max")
        if lo is None:
            return values, box.t_min + j
        values.append(lo)
    return values, None


def _reference_path(box, start_x, n):
    lower, upper = _reference_tables(box, start_x, n)
    anchor = _ref_max(lower[n], box.lefts[n])
    top = _ref_max(upper[n], box.lefts[n])
    if anchor is None and top is None:
        raise NoPathError("no open path")
    if anchor is None or anchor != top:
        raise BoxTooNarrowError("top level not certified")
    path = [anchor]
    for j in range(n, 0, -1):
        y = path[-1]
        for cand, edge in ((y + 1, box.open_ul), (y - 1, box.open_ur)):
            ci = cand - box.lefts[j - 1]
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


def _native_tables(box, start_x, n):
    """The two tables of ``dp_box`` on hashed rows as ints, one per row, or
    its refusal."""
    from opweb import _native, oracle
    width = box.x_max - box.x_min + 1
    code, lower, upper, *_ = _native.hashed_dp(
        box.lefts[:n + 1], box.t_min, width, start_x - box.x_min, box.cfg)
    if code in (oracle.SEED_WALL, oracle.WALL):
        raise oracle._refusal(code)
    words = -(-width // 64)
    return tuple([sum(word << 64 * k for k, word in
                      enumerate(table[j * words:(j + 1) * words]))
                  for j in range(n + 1)] for table in (lower, upper))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([0.0, 0.5, 0.65, 0.8, 1.0]),
       stream=st.integers(0, 10**6),
       x_min=st.integers(-13, 0), t_min=st.integers(-3, 3),
       width=st.integers(1, 24), height=st.integers(1, 12),
       data=st.data())
def test_bit_row_dp_matches_numpy_rows(p, stream, x_min, t_min, width,
                                       height, data):
    _bit_row_dp_matches_numpy_rows(p, stream, x_min, t_min, width, height,
                                   data)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=st.sampled_from([0.0, 0.5, 0.65, 0.8, 1.0]),
       stream=st.integers(0, 10**6),
       x_min=st.integers(-13, 0), t_min=st.integers(-3, 3),
       width=st.sampled_from([62, 63, 64, 128, 129]),
       height=st.integers(1, 12), data=st.data())
def test_bit_row_dp_matches_numpy_rows_across_words(p, stream, x_min, t_min,
                                                    width, height, data):
    # boxes of 63, 64, 65, 129 and 130 columns: rows of one to three
    # 64-bit words, whose shifts and masks cross the words' edges
    _bit_row_dp_matches_numpy_rows(p, stream, x_min, t_min, width, height,
                                   data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
       stream=st.integers(0, 10**6),
       x_min=st.one_of(st.integers(-13, 0),
                       st.integers(-(1 << 30), 1 << 30)),
       t_min=st.integers(-3, 3),
       width=st.integers(1, 257), height=st.integers(1, 12),
       data=st.data())
def test_bit_row_dp_matches_numpy_rows_far_and_wide(p, stream, x_min, t_min,
                                                    width, height, data):
    # the hash of every edge the DP reads, on boxes of 2 to 258 columns,
    # one to five words, as far as 2**30 columns either side of 0, with rows
    # whose last site falls past the wall; p = 1 on the all-open flag
    _bit_row_dp_matches_numpy_rows(p, stream, x_min, t_min, width, height,
                                   data)


def _bit_row_dp_matches_numpy_rows(p, stream, x_min, t_min, width, height,
                                   data):
    # a rectangle, or a band whose left wall steps by -1, 0 or +1 per row
    steps = data.draw(st.one_of(
        st.just([0] * height),
        st.lists(st.sampled_from([-1, 0, 1]), min_size=height,
                 max_size=height)), label="steps")
    box = BoxConfig(Config(3, p, stream), x_min, x_min + width, t_min,
                    t_min + height, np.cumsum([0, *steps]))
    ref = _reference_box(box)
    # the entry flag marks the one lattice edge from left of the box that
    # lands on the next row, at its first site
    for j in range(height):
        first = (box.lefts[j + 1] + t_min + j + 1) % 2
        assert _entries(ref, j) == ([first] if ref.entry_open[j] else [])
    start_x = data.draw(st.integers(x_min, x_min + width))
    n = data.draw(st.integers(0, height))

    tables = _outcome(_reference_tables, ref, start_x, n, view=_as_ints)
    assert _outcome(_native_tables, box, start_x, n) == tables
    assert (_outcome(dp_right_boundary, box, start_x, n,
                     view=lambda dp: (dp.values, dp.dead_from))
            == _outcome(_reference_boundary, ref, start_x, n))
    assert (_outcome(dp_rightmost_path, box, start_x, n)
            == _outcome(_reference_path, ref, start_x, n))
