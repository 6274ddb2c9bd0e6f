import logging
import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import columns, frame_points

from stereomot import (
    StitchParams,
    Track3D,
    Tracklet3D,
    assignment_cost,
    associate,
    gallery_rank,
    select_initial,
)
from stereomot.cli import main
from stereomot.formats import read_tracks_csv
from stereomot.track3d import _normalize, _switch_path, temporal_gap


def t3d(tid, start, end, pos=(0.0, 0.0, 0.0), step=(0.0, 0.0, 0.0)):
    p0 = np.asarray(pos, dtype=float)
    dp = np.asarray(step, dtype=float)
    points = {f: p0 + dp * (f - start) for f in range(start, end + 1)}
    return Tracklet3D(id=tid, **columns(points))


def main3d(fid, start, end, pos=(0.0, 0.0, 0.0)):
    t = t3d(fid, start, end, pos)
    return Track3D(fish_id=fid, frame=t.frame, point=t.point, sources=[])


def test_params_validation():
    with pytest.raises(ValueError):
        StitchParams(beta=0.0)
    with pytest.raises(ValueError):
        StitchParams(beta=1.0)
    with pytest.raises(ValueError):
        StitchParams(top_fraction=0.0)
    with pytest.raises(ValueError):
        StitchParams(top_fraction=1.5)
    with pytest.raises(ValueError):
        StitchParams(overlap_scale=0.0)


def test_temporal_gap():
    a, b = t3d(0, 0, 100), t3d(1, 101, 110)
    assert temporal_gap(a, b) == 1
    assert temporal_gap(b, a) == 1
    assert temporal_gap(a, t3d(2, 120, 130)) == 20
    assert temporal_gap(a, t3d(3, 50, 150)) == 0


def test_select_initial_concurrent_set():
    tracklets = [t3d(i, 0, 899) for i in range(3)]
    got = select_initial(tracklets, 3)
    assert got is not None
    mains, used = got
    assert [m.fish_id for m in mains] == [1, 2, 3]
    assert used == {0, 1, 2}
    assert all(m.duration == 900 for m in mains)


def test_select_initial_no_valid_combo():
    assert select_initial([t3d(0, 0, 50), t3d(1, 60, 100)], 2) is None
    assert select_initial([t3d(0, 0, 50)], 2) is None


def test_select_initial_prefers_higher_overlap_then_total():
    a = t3d(1, 50, 150)
    c = t3d(2, 50, 300)   # longest: always a seed
    d = t3d(3, 200, 301)  # one frame longer than a
    got = select_initial([a, c, d], 2)
    assert got is not None
    _, used = got
    assert used == {2, 3}  # same median overlap, higher total duration

    d_tied = t3d(3, 200, 300)
    got = select_initial([a, c, d_tied], 2)
    assert got is not None
    _, used = got
    assert used == {1, 2}  # full tie resolved by smaller id tuple


def test_select_initial_single_fish_takes_longest():
    got = select_initial([t3d(0, 0, 10), t3d(1, 100, 400), t3d(2, 0, 50)], 1)
    assert got is not None
    mains, used = got
    assert used == {1}
    assert mains[0].fish_id == 1


def select_initial_by_rule(tracklets, n_fish, params):
    """The seed-set rule stated directly: of all pairwise-concurrent
    combinations holding a seed, the highest median pairwise overlap, then
    the highest total duration, then the smallest id tuple."""
    def overlap(a, b):
        return min(a.last_frame, b.last_frame) - max(a.first_frame,
                                                     b.first_frame) + 1

    def pair_ok(a, b):
        return overlap(a, b) >= max(1.0, params.overlap_scale
                                    * min(a.duration, b.duration))

    by_len = sorted(tracklets, key=lambda t: (-t.duration, t.id))
    n_seeds = max(1, math.ceil(params.top_fraction * len(tracklets)))
    seeds = {t.id for t in by_len[:n_seeds]}
    best = None
    for combo in combinations(tracklets, n_fish):
        ids = tuple(sorted(t.id for t in combo))
        if seeds.isdisjoint(ids) or not all(
                pair_ok(a, b) for a, b in combinations(combo, 2)):
            continue
        score = (float(combo[0].duration) if n_fish == 1 else float(
            np.median([overlap(a, b) for a, b in combinations(combo, 2)])))
        key = (-score, -sum(t.duration for t in combo), ids)
        best = key if best is None or key < best else best
    return None if best is None else set(best[2])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 30)),
                min_size=1, max_size=8),
       st.integers(1, 4), st.sampled_from([0.2, 0.5, 1.0]),
       st.sampled_from([0.1, 0.2, 0.6, 1.0]))
def test_select_initial_matches_the_rule(extents, n_fish, top, scale):
    tracklets = [t3d(i, start, start + length)
                 for i, (start, length) in enumerate(extents)]
    params = StitchParams(top_fraction=top, overlap_scale=scale)
    got = select_initial(tracklets, n_fish, params)
    want = select_initial_by_rule(tracklets, n_fish, params)
    assert (None if got is None else got[1]) == want
    if got is not None:
        mains, used = got
        assert [m.sources for m in mains] == [[i] for i in sorted(used)]


def test_gallery_rank_order_and_relegation():
    mains = [main3d(1, 0, 100)]
    a = t3d(10, 101, 110)
    b = t3d(11, 120, 130)
    c = t3d(12, 20, 80)  # overlaps every main
    assert gallery_rank([c, b, a], mains) == [a, b, c]


def test_gallery_rank_compares_gaps_across_the_recording():
    # The later gallery has the smaller gap. Galleries on both sides of
    # frame 1000 catch a gap scaled by a step of the absolute frame.
    mains = [main3d(1, 0, 69), main3d(2, 1200, 1299)]
    early, late = t3d(10, 100, 119), t3d(11, 1320, 1339)
    assert gallery_rank([early, late], mains) == [late, early]


def test_gallery_rank_stable_on_ties():
    mains = [main3d(1, 0, 100)]
    a = t3d(10, 110, 120)
    b = t3d(11, 110, 115)
    assert gallery_rank([a, b], mains) == [a, b]
    assert gallery_rank([b, a], mains) == [b, a]


@st.composite
def stitch_scenes(draw):
    """One to three mains and one to four galleries on frames 0..55, with
    small integer points. The first gallery starts after the first main
    ends, so a gap ranks it; the others fall anywhere."""
    coords = st.lists(st.integers(-3, 3), min_size=3, max_size=3)

    def points(start, length):
        return {f: np.array(draw(coords), dtype=float)
                for f in range(start, start + length)}

    extent = st.tuples(st.integers(0, 40), st.integers(1, 15))
    mains = [Track3D(fish_id=i + 1, **columns(points(*draw(extent))))
             for i in range(draw(st.integers(1, 3)))]
    after = mains[0].last_frame + draw(st.integers(1, 10))
    galleries = [Tracklet3D(id=10, **columns(points(
        after, draw(st.integers(1, 10)))))]
    galleries += [Tracklet3D(id=11 + k, **columns(points(*draw(extent))))
                  for k in range(draw(st.integers(0, 3)))]
    return mains, galleries


def shifted(extent, by):
    """The tracklet or track with every frame moved by `by`."""
    return replace(extent, frame=extent.frame + by)


@settings(max_examples=150, deadline=None)
@given(stitch_scenes(), st.integers(1, 10_000))
def test_gallery_rank_and_assignment_cost_ignore_a_frame_shift(scene, by):
    # Only frame differences matter: moving every frame of the mains and
    # galleries by one constant keeps the ranking and every cost.
    mains, galleries = scene
    moved_mains = [shifted(m, by) for m in mains]
    moved = [shifted(g, by) for g in galleries]
    assert ([g.id for g in gallery_rank(moved, moved_mains)]
            == [g.id for g in gallery_rank(galleries, mains)])
    for g, g_moved in zip(galleries, moved):
        assert (assignment_cost(g_moved, moved_mains)
                == assignment_cost(g, mains))


def test_switch_cost_hand_geometry():
    # The cheapest walk switches into the gallery and back out once, over
    # 5 cm for main 1 and 13 cm for main 2; both overlap all 4 frames.
    mains = [main3d(1, 0, 9), main3d(2, 0, 9, pos=(0.0, 0.0, 12.0))]
    gallery = t3d(10, 4, 7, pos=(3.0, 4.0, 0.0))
    costs = assignment_cost(gallery, mains)
    assert costs[0] == pytest.approx((5.0 / 18.0 + 0.5 + 0.5) / 3.0)
    assert costs[1] == pytest.approx((13.0 / 18.0 + 0.5 + 0.5) / 3.0)


def test_switch_cost_zero_when_coincident():
    mains = [main3d(1, 0, 9), main3d(2, 0, 9, pos=(0.0, 0.0, 12.0))]
    gallery = t3d(10, 3, 6)
    costs = assignment_cost(gallery, mains)
    assert costs[0] == pytest.approx((0.0 + 0.5 + 0.5) / 3.0)
    assert costs[1] == pytest.approx((1.0 + 0.5 + 0.5) / 3.0)


def test_switch_cost_none_when_no_walk_joins():
    # Main 1 and the gallery share their single frame: no walk over
    # consecutive frames visits both, so main 1 cannot take the gallery.
    mains = [main3d(1, 5, 5), main3d(2, 0, 9)]
    gallery = t3d(10, 5, 5, pos=(1.0, 0.0, 0.0))
    assert assignment_cost(gallery, mains) == [None, 1.0]


@st.composite
def tracklet_pairs(draw):
    """A gallery and a main on up to 12 frames, with small integer points
    so that equal-cost walks are common."""
    def points():
        frames = draw(st.sets(st.integers(0, 11), min_size=1, max_size=12))
        coords = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
        return {f: np.array(draw(coords), dtype=float) for f in frames}
    return (Tracklet3D(id=10, **columns(points())),
            Track3D(fish_id=1, **columns(points())))


@settings(max_examples=300, deadline=None)
@given(tracklet_pairs())
def test_switch_path_equals_the_backtracking_search(pair):
    gallery, main = pair
    assert _switch_path(gallery, main) == reference.switch_path(gallery, main)


def test_assignment_cost_disjoint_mains():
    mains = [main3d(1, 0, 10, pos=(0.0, 0.0, 0.0)),
             main3d(2, 0, 10, pos=(10.0, 0.0, 0.0))]
    gallery = t3d(20, 21, 30, pos=(2.0, 0.0, 0.0))
    costs = assignment_cost(gallery, mains)
    # distances 2 and 8 normalize to 0.2/0.8; equal gaps split 0.5/0.5
    assert costs[0] == pytest.approx((0.2 + 0.5) / 2.0)
    assert costs[1] == pytest.approx((0.8 + 0.5) / 2.0)


def test_assignment_cost_masks_overlapping_mains():
    mains = [main3d(1, 0, 10), main3d(2, 15, 40)]
    gallery = t3d(20, 12, 20, pos=(1.0, 0.0, 0.0))
    costs = assignment_cost(gallery, mains)
    assert costs[1] is None
    assert costs[0] == pytest.approx(1.0)  # lone competitor takes all mass


def test_assignment_cost_all_overlapping():
    mains = [main3d(1, 0, 20, pos=(0.0, 0.0, 0.0)),
             main3d(2, 0, 20, pos=(50.0, 0.0, 0.0))]
    gallery = t3d(20, 5, 15, pos=(3.0, 4.0, 0.0))
    costs = assignment_cost(gallery, mains)
    d_far = math.dist((3.0, 4.0, 0.0), (50.0, 0.0, 0.0))
    switch = _normalize([5.0, d_far])
    expect0 = (switch[0] + 0.5 + 0.5) / 3.0
    expect1 = (switch[1] + 0.5 + 0.5) / 3.0
    assert costs[0] == pytest.approx(expect0)
    assert costs[1] == pytest.approx(expect1)


def test_normalization_scale_invariance(rng):
    raw = rng.random(5) + 0.1
    scaled = (raw * 37.5).tolist()
    assert _normalize(scaled) == pytest.approx(_normalize(raw.tolist()))
    assert _normalize([0.0, 0.0]) == [0.5, 0.5]


def test_associate_chains_single_fish():
    parts = [t3d(0, 0, 10), t3d(1, 12, 20, pos=(0.5, 0.0, 0.0)),
             t3d(2, 22, 30, pos=(1.0, 0.0, 0.0))]
    (track,) = associate(parts, 1)
    assert track.fish_id == 1
    assert set(track.frame.tolist()) == (set(range(0, 11)) | set(range(12, 21))
                                         | set(range(22, 31)))
    assert track.sources == [0, 1, 2]


def test_associate_discards_ambiguous_gallery():
    tracklets = [t3d(0, 0, 10, pos=(0.0, 0.0, 0.0)),
                 t3d(1, 0, 10, pos=(10.0, 0.0, 0.0)),
                 t3d(2, 20, 25, pos=(5.0, 0.0, 0.0))]
    tracks = associate(tracklets, 2)
    assert len(tracks) == 2
    for track in tracks:
        assert 2 not in track.sources
        assert set(track.frame.tolist()) == set(range(0, 11))


def test_associate_keeps_gallery_at_margin_beta(monkeypatch):
    # A margin of exactly beta between the two best mains is not ambiguous.
    monkeypatch.setattr("stereomot.track3d.assignment_cost",
                        lambda gallery, mains, params: [0.0, 0.02])
    tracklets = [t3d(0, 0, 10), t3d(1, 0, 10, pos=(10.0, 0.0, 0.0)),
                 t3d(2, 20, 25, pos=(5.0, 0.0, 0.0))]
    tracks = associate(tracklets, 2, StitchParams(beta=0.02))
    assert [t.sources for t in tracks] == [[0, 2], [1]]


def test_associate_merge_keeps_main_points():
    tracklets = [t3d(0, 0, 20, pos=(0.0, 0.0, 0.0)),
                 t3d(1, 0, 20, pos=(50.0, 0.0, 0.0)),
                 t3d(2, 5, 15, pos=(3.0, 4.0, 0.0))]
    tracks = associate(tracklets, 2)
    near = next(t for t in tracks if 0 in t.sources)
    assert 2 in near.sources
    for f in range(5, 16):
        assert np.array_equal(frame_points(near)[f], np.zeros(3))


def test_associate_passthrough_without_seeds():
    tracklets = [t3d(3, 0, 30), t3d(7, 40, 80)]
    tracks = associate(tracklets, 2)
    assert [t.fish_id for t in tracks] == [1, 2]
    assert [t.sources for t in tracks] == [[3], [7]]
    assert tracks[0].duration == 31
    assert tracks[1].duration == 41


def test_associate_empty_tracklets_skipped():
    tracklets = [t3d(0, 0, 30), Tracklet3D(id=1), t3d(2, 0, 30, pos=(5.0, 0, 0))]
    tracks = associate(tracklets, 2)
    assert len(tracks) == 2
    assert all(1 not in t.sources for t in tracks)


def test_associate_warns_when_no_seed_set(tmp_path, caplog):
    # This jittered scene has no concurrent set of five 3D tracklets, so
    # stitching falls back to passing every tracklet through.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_fish = 5\nduration_s = 5.0\n"
                   "degrade.jitter_px = 6.0\nseed = 0\n")
    with caplog.at_level(logging.WARNING, logger="stereomot.track3d"):
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
    (record,) = [r for r in caplog.records if r.name == "stereomot.track3d"]
    assert record.levelno == logging.WARNING
    assert "n_fish=5" in record.getMessage()
    assert "6 tracklets" in record.getMessage()
    assert len(read_tracks_csv(tmp_path / "tracks.csv")) == 6


def test_associate_with_seed_set_does_not_warn(caplog):
    tracklets = [t3d(0, 0, 50), t3d(1, 0, 50, pos=(5.0, 0.0, 0.0))]
    with caplog.at_level(logging.WARNING, logger="stereomot.track3d"):
        assert len(associate(tracklets, 2)) == 2
    assert not caplog.records
