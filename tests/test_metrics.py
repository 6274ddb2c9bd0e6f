import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference

from stereomot import (
    GroundTruth,
    clear_mot,
    complexity_psi,
    complexity_report,
    complexity_stats,
    evaluate_tracks,
    id_metrics,
    match_frames,
    mt_ml,
    mtbf,
    occlusion_events,
    oracle_tracks,
)
from stereomot.metrics import ViewComplexity

BOX = (0.0, 0.0, 10.0, 10.0)


def make_gt(n_frames, n_fish, fps=60.0, flags=(), spacing=3.0):
    """GT with fish i (column i - 1) resting at x = i * spacing;
    flags = {(frame, fish, view)}."""
    gt = GroundTruth(fps=fps, n_frames=n_frames, ids=range(1, n_fish + 1))
    for v in ("top", "front"):
        gt.boxes[v][:] = BOX
        gt.heads[v][:] = (5.0, 5.0)
    gt.points3d[:] = [[i * spacing, 10.0, 5.0] for i in gt.fish_ids]
    for f, i, v in flags:
        gt.occluded[v][f, i - 1] = True
    return gt


def flag_range(fish, frames, view="top"):
    return {(f, fish, view) for f in frames}


def pred_from_gt(gt):
    return [(i, np.arange(gt.n_frames), gt.points3d[:, i - 1])
            for i in gt.fish_ids]


def resting(track_id, frames, point):
    """Track `track_id` holding `point` at each of `frames`."""
    frames = np.asarray(frames)
    return (track_id, frames, np.tile(point, (len(frames), 1)))


def triples(pred, d):
    """The reference's {track_id: {frame: (d,) point}} prediction as the
    library's (track_id, frame (n,), point (n, d)) triples."""
    return [(i, np.array(list(track), dtype=np.intp),
             np.array(list(track.values()), dtype=float).reshape(-1, d))
            for i, track in pred.items()]


def test_occlusion_events_runs():
    gt = make_gt(100, 2, flags=flag_range(1, range(30, 60)))
    events = occlusion_events(gt, "top")
    assert events[1] == [(30, 59)]
    assert events[2] == []
    gt = make_gt(50, 1, flags=flag_range(1, range(40, 50)))
    assert occlusion_events(gt, "top")[1] == [(40, 49)]  # closes at the end


def test_occlusion_involving_two_fish_counts_twice():
    flags = flag_range(1, range(30, 60)) | flag_range(2, range(30, 60))
    gt = make_gt(100, 2, flags=flags)
    events = occlusion_events(gt, "top")
    assert sum(len(v) for v in events.values()) == 2


def test_complexity_stats_hand_case():
    gt = make_gt(100, 2, fps=10.0, flags=flag_range(1, range(10, 20)))
    stats = complexity_stats(gt, "top")
    assert stats.oc == pytest.approx(1.0 / 10.0, abs=1e-12)
    assert stats.ol == pytest.approx(1.0, abs=1e-12)
    # per-fish gaps: fish1 [10, 80], fish2 eventless [100]
    assert stats.tbo == pytest.approx((10 + 80 + 100) / 3.0 / 10.0, abs=1e-12)
    # the flagged fish has no flagged partner, so nothing overlaps
    assert stats.ibo == 0.0


def test_complexity_ibo_identical_boxes():
    flags = flag_range(1, range(0, 10)) | flag_range(2, range(0, 10))
    gt = make_gt(10, 2, flags=flags)
    assert complexity_stats(gt, "top").ibo == pytest.approx(1.0, abs=1e-12)
    flags3 = flags | flag_range(3, range(0, 10))
    gt3 = make_gt(10, 3, flags=flags3)
    stats = complexity_stats(gt3, "top")
    assert stats.ibo == pytest.approx(2.0, abs=1e-12)  # <= n_flagged - 1


def test_complexity_no_occlusion_tbo_is_duration():
    gt = make_gt(900, 2, fps=60.0)
    stats = complexity_stats(gt, "top")
    assert stats.oc == 0.0
    assert stats.ol == 0.0
    assert stats.tbo == pytest.approx(15.0, abs=1e-12)
    assert stats.ibo == 0.0


def test_complexity_psi_arithmetic():
    top = ViewComplexity(oc=2.0 / 15.0, ol=1.0, tbo=7.0, ibo=1.0)
    quiet = ViewComplexity(oc=0.0, ol=0.0, tbo=15.0, ibo=0.0)
    expect = (2.0 / 15.0 * 1.0 * 1.0 / 7.0) / 2.0
    assert complexity_psi(top, quiet) == pytest.approx(expect, rel=1e-12)
    assert complexity_psi(quiet, quiet) == 0.0
    busy = ViewComplexity(oc=1.0, ol=1.0, tbo=0.0, ibo=1.0)
    assert math.isinf(complexity_psi(busy, quiet))


def test_complexity_report_roundtrip():
    gt = make_gt(100, 2, flags=flag_range(1, range(10, 20))
                 | flag_range(2, range(10, 20)))
    report = complexity_report(gt)
    d = report.to_dict()
    assert d["psi"] == pytest.approx(report.psi)
    assert set(d["top"]) == {"oc", "ol", "tbo", "ibo"}


def test_match_frames_gate_boundary():
    gt = make_gt(1, 1)
    base = gt.points3d[0, 0]
    at_gate = [resting(1, [0], base + np.array([0.5, 0.0, 0.0]))]
    seq = match_frames(at_gate, gt, dist_thresh=0.5)
    assert (seq.track[0, 0], seq.dist[0, 0]) == (0, 0.5)
    beyond = [resting(1, [0], base + np.array([0.5 + 1e-9, 0.0, 0.0]))]
    seq = match_frames(beyond, gt, dist_thresh=0.5)
    assert seq.track[0, 0] == -1
    assert np.isnan(seq.dist[0, 0])


def test_match_persistence_through_crossing():
    # two fish swap sides; exact preds must keep their original pairing
    n = 21
    gt = make_gt(n, 2)
    for f in range(n):
        x = f * 1.0
        gt.points3d[f] = [[x, 0.0, 0.0], [20.0 - x, 0.0, 0.0]]
    pred = [(10, np.arange(n), gt.points3d[:, 0]),
            (20, np.arange(n), gt.points3d[:, 1])]
    seq = match_frames(pred, gt, dist_thresh=5.0)
    assert seq.pids == [10, 20]
    assert (seq.track == [0, 1]).all()
    res = clear_mot(seq)
    assert res.idsw == 0
    assert res.mota == 100.0


def test_clear_mot_hand_counts():
    gt = make_gt(100, 1)
    origin = gt.points3d[0, 0]
    pred = [
        resting(1, range(0, 50), origin),
        resting(2, range(50, 70), origin),
        resting(3, range(70, 90), origin),
        resting(9, range(0, 5), origin + np.array([10.0, 10.0, 10.0])),
    ]
    res = clear_mot(match_frames(pred, gt, dist_thresh=0.5))
    assert (res.fn, res.fp, res.idsw, res.frag) == (10, 5, 2, 0)
    assert res.mota == pytest.approx(83.0)
    assert res.motp == pytest.approx(0.0)
    assert res.recall == pytest.approx(90.0)
    assert res.precision == pytest.approx(100.0 * 90 / 95)


def test_clear_mot_requires_gt():
    gt = GroundTruth(fps=60.0, n_frames=0, ids=())
    with pytest.raises(ValueError):
        clear_mot(match_frames([], gt, dist_thresh=0.5))


def test_frag_and_idsw_after_gap():
    gt = make_gt(30, 1)
    origin = gt.points3d[0, 0]
    same_id = [resting(1, np.r_[0:10, 20:30], origin)]
    res = clear_mot(match_frames(same_id, gt, dist_thresh=0.5))
    assert (res.fn, res.idsw, res.frag) == (10, 0, 1)
    assert res.mota == pytest.approx(100.0 * (1 - 10 / 30))

    new_id = [resting(1, range(0, 10), origin),
              resting(2, range(20, 30), origin)]
    res = clear_mot(match_frames(new_id, gt, dist_thresh=0.5))
    assert (res.fn, res.idsw, res.frag) == (10, 1, 1)


def test_mt_ml_inclusive_thresholds():
    gt = make_gt(10, 3, spacing=5.0)
    pred = [
        (1, np.arange(8), gt.points3d[:8, 0]),   # 0.8 -> MT
        (2, np.arange(2), gt.points3d[:2, 1]),   # 0.2 -> ML
        (3, np.arange(5), gt.points3d[:5, 2]),   # neither
    ]
    seq = match_frames(pred, gt, dist_thresh=0.5)
    assert mt_ml(seq) == (1, 1)


def test_id_metrics_perfect_and_half():
    gt = make_gt(100, 1)
    perfect = pred_from_gt(gt)
    assert id_metrics(perfect, gt, 0.5) == pytest.approx((100.0, 100.0, 100.0))
    half = [(1, np.arange(50), gt.points3d[:50, 0])]
    idp, idr, idf1 = id_metrics(half, gt, 0.5)
    assert idp == pytest.approx(100.0)
    assert idr == pytest.approx(50.0)
    assert idf1 == pytest.approx(200.0 / 3.0)


def test_id_metrics_label_invariance():
    gt = make_gt(40, 2)
    pred = pred_from_gt(gt)
    (_, f1, p1), (_, f2, p2) = pred
    relabeled = [(99, f1, p1), (7, f2, p2)]
    assert id_metrics(pred, gt, 0.5) == pytest.approx(
        id_metrics(relabeled, gt, 0.5))


def test_mtbf_interior_gap():
    gt = make_gt(100, 1)
    origin = gt.points3d[0, 0]
    pred = [resting(1, np.r_[0:50, 60:100], origin)]
    seq = match_frames(pred, gt, dist_thresh=0.5)
    strict, monotone = mtbf(seq)
    assert strict == pytest.approx(90.0)   # one failure: segment ends early
    assert monotone == pytest.approx(45.0)  # the gap also charges


def test_mtbf_pure_id_switch():
    gt = make_gt(100, 1)
    origin = gt.points3d[0, 0]
    pred = [resting(1, range(0, 50), origin),
            resting(2, range(50, 100), origin)]
    seq = match_frames(pred, gt, dist_thresh=0.5)
    assert mtbf(seq) == (pytest.approx(100.0), pytest.approx(100.0))


def test_mtbf_perfect_equals_length():
    gt = make_gt(900, 1)
    seq = match_frames(pred_from_gt(gt), gt, dist_thresh=0.5)
    assert mtbf(seq) == (pytest.approx(900.0), pytest.approx(900.0))


def test_mtbf_no_matches():
    gt = make_gt(10, 1)
    seq = match_frames([], gt, dist_thresh=0.5)
    assert mtbf(seq) == (0.0, 0.0)


def test_oracle_drops_occluded_frames():
    gt = make_gt(30, 1, flags=flag_range(1, range(10, 13)))
    pred = oracle_tracks(gt)
    [(i, frame, point)] = pred
    assert i == 1
    assert set(frame.tolist()) == set(range(30)) - {10, 11, 12}
    assert np.array_equal(point, gt.points3d[frame, 0])
    res = clear_mot(match_frames(pred, gt, dist_thresh=0.5))
    assert (res.fn, res.idsw, res.frag) == (3, 0, 1)
    assert res.mota == pytest.approx(100.0 * (1 - 3 / 30))


def test_oracle_either_view_blocks_3d():
    gt = make_gt(20, 1, flags=flag_range(1, range(5, 8), view="front"))
    [(_, frame, _)] = oracle_tracks(gt)
    assert set(frame.tolist()) == set(range(20)) - {5, 6, 7}
    # the top view alone is unaffected by front-view flags
    [(_, frame, point)] = oracle_tracks(gt, view="top")
    assert set(frame.tolist()) == set(range(20))
    assert point.shape == (20, 2)


def test_oracle_fragmented_ids():
    # The oracle's track split at the occlusion, each visible run under
    # its own id: resuming under the second id is one switch.
    gt = make_gt(30, 1, flags=flag_range(1, range(10, 13)))
    pred = [(1, np.arange(10), gt.points3d[:10, 0]),
            (2, np.arange(13, 30), gt.points3d[13:30, 0])]
    res = clear_mot(match_frames(pred, gt, dist_thresh=0.5))
    assert res.idsw == 1


def test_evaluate_tracks_perfect():
    gt = make_gt(60, 2)
    report = evaluate_tracks(pred_from_gt(gt), gt, dist_thresh=0.5)
    assert report.mota == 100.0
    assert report.motp == 0.0
    assert report.id_f1 == pytest.approx(100.0)
    assert report.mt == 2
    assert report.ml == 0
    assert (report.fp, report.fn, report.idsw, report.frag) == (0, 0, 0, 0)
    # segment lengths pool over tracks, so a clean 2-fish run doubles up
    assert report.mtbf_strict == pytest.approx(120.0)
    assert report.mtbf_monotone == pytest.approx(120.0)
    d = report.to_dict()
    assert d["mota"] == 100.0
    assert d["n_gt_tracks"] == 2


@pytest.mark.parametrize("view", [None, "top"])
def test_huge_coordinate_scores_without_overflow_warnings(view):
    # A coordinate near 1e308 squares to inf, which is past every gate: the
    # report is the one a merely distant point gives, with no warning.
    gt = make_gt(20, 2)
    d = 3 if view is None else 2
    points = [np.full((20, d), 5.0) if view else gt.points3d[:, j].copy()
              for j in range(2)]
    pred = [(i, np.arange(20), points[i - 1]) for i in (1, 2)]
    reports = []
    for far in (1e308, -1.7e308, 1e6):
        points[0][7] = far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports.append(evaluate_tracks(pred, gt, dist_thresh=20.0,
                                           view=view).to_dict())
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["fp"] == 1


def test_evaluate_tracks_2d_space():
    gt = make_gt(30, 2)
    pred = [resting(i, range(30), [5.0, 5.0]) for i in (1, 2)]
    report = evaluate_tracks(pred, gt, dist_thresh=20.0, view="top")
    assert report.mota == 100.0
    with pytest.raises(ValueError, match="view must be"):
        evaluate_tracks(pred, gt, dist_thresh=20.0, view="side")


def test_dropping_matched_frame_lowers_mota():
    gt = make_gt(20, 1)
    [(i, frame, point)] = pred_from_gt(gt)
    full = evaluate_tracks([(i, frame, point)], gt, dist_thresh=0.5).mota
    keep = frame != 7
    assert evaluate_tracks([(i, frame[keep], point[keep])], gt,
                           dist_thresh=0.5).mota < full


def test_a_track_with_no_points_still_counts():
    # The oracle keeps a fish that is occluded in every frame as a track
    # with no rows; it is a predicted track all the same.
    gt = make_gt(20, 2, flags=flag_range(2, range(20), view="front"))
    pred = oracle_tracks(gt)
    assert [i for i, _, _ in pred] == [1, 2]
    assert len(pred[1][1]) == 0 and pred[1][2].shape == (0, 3)
    assert match_frames(pred, gt, dist_thresh=0.5).pids == [1, 2]
    report = evaluate_tracks(pred, gt, dist_thresh=0.5)
    assert report.n_pred_tracks == 2
    assert (report.fp, report.fn, report.n_matches) == (0, 20, 20)


@pytest.mark.parametrize("pred, message", [
    ([(1, np.arange(3), np.zeros((3, 3))),
      (1, np.arange(3, 6), np.zeros((3, 3)))], "unique"),
    ([(1, np.array([2, 0, 2]), np.zeros((3, 3)))], "repeats a frame"),
    ([(1, np.arange(3), np.zeros((2, 3)))], "per frame"),
], ids=["repeated-id", "repeated-frame", "length-mismatch"])
def test_malformed_prediction_is_refused(pred, message):
    gt = make_gt(10, 1)
    with pytest.raises(ValueError, match=message):
        evaluate_tracks(pred, gt, dist_thresh=0.5)


@st.composite
def scored_tracks(draw):
    """(pred, gt, gates, view): ground truth with absent fish, tracks in
    the reference's dict form with frames before and past the ground truth
    that mostly follow one fish (a track may keep no frame at all), and
    gates that are the distances themselves. Points on an integer grid give
    exact distances; normal ones differ in the last bit between ways of
    summing."""
    view = draw(st.sampled_from([None, "top", "front"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    n_frames = int(rng.integers(1, 21))
    gt = GroundTruth(fps=30.0, n_frames=n_frames, ids=sorted(
        rng.choice(100, rng.integers(0, 5), replace=False)))
    pos = gt.points3d if view is None else gt.heads[view]
    pos[:] = (rng.integers(-20, 21, pos.shape) if grid
              else rng.normal(0.0, 10.0, pos.shape))
    pos[rng.random(pos.shape[:2]) < 0.2] = np.nan
    pred, dists = {}, []
    for pid in rng.choice(100, rng.integers(1, 6), replace=False).tolist():
        pred[pid], j = {}, rng.integers(max(gt.n_fish, 1))
        first = rng.integers(-2, n_frames + 1)
        for f in range(first, first + rng.integers(1, 21)):
            if rng.random() < 0.2:
                continue
            if rng.random() < 0.2:
                j = rng.integers(max(gt.n_fish, 1))
            inside = 0 <= f < n_frames and gt.n_fish
            base = np.nan_to_num(pos[f, j]) if inside else 0.0
            pred[pid][f] = base + (
                rng.choice([0.0, 3.0, -4.0], pos.shape[-1]) if grid
                else rng.normal(0.0, 1.5, pos.shape[-1]))
            if inside:
                dists.append(np.linalg.norm(pos[f, j] - pred[pid][f]))
    gates = [5.0] + [float(d) for d in dists if 0 < d < 8][:10]
    return pred, gt, gates, view


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(scored_tracks())
def test_match_frames_equals_the_pairwise_reference(case):
    pred, gt, gates, view = case
    for gate in gates:
        seq = match_frames(triples(pred, 2 if view else 3), gt, gate, view)
        rec = reference.match_frames(pred, gt, gate, view)
        assert reference.record(seq, gt.fish_ids) == rec
        assert outcome(clear_mot, seq) == outcome(reference.clear_mot, rec)
        assert mt_ml(seq) == reference.mt_ml(rec)
        assert mtbf(seq) == reference.mtbf(rec)


@settings(max_examples=150, deadline=None)
@given(scored_tracks())
def test_id_metrics_equals_the_pairwise_reference(case):
    pred, gt, gates, view = case
    for gate in gates:
        assert (id_metrics(triples(pred, 2 if view else 3), gt, gate, view)
                == reference.id_metrics(pred, gt, gate, view))


@settings(max_examples=100, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 30), st.integers(0, 4))),
       st.sampled_from(["top", "front"]))
def test_time_between_occlusions_equals_the_reference(flags, view):
    gt = GroundTruth(fps=30.0, n_frames=len(flags), ids=range(flags.shape[1]))
    gt.occluded[view][:] = flags
    assert (complexity_stats(gt, view).tbo
            == reference.time_between_occlusions(gt, view))
