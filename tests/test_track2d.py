import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import tracklet
from stereomot import DetectionTable, Track2DParams, build_tracklets
from stereomot.track2d import (EUCLIDEAN_HEAD, MAHALANOBIS_CENTROID,
                               _box_cov, gate_matrix, hungarian, mahalanobis)


def det(x, y, cov=None, bbox=None) -> DetectionTable:
    """One detection: a one-row table."""
    return DetectionTable.of((float(x), float(y)), cov=cov, bbox=bbox)


def table(frames: dict) -> DetectionTable:
    """A view's table of {frame: [one-row table, ...]}."""
    t = DetectionTable.concat([d for f in sorted(frames) for d in frames[f]])
    t.frame = np.array([f for f in sorted(frames) for _ in frames[f]],
                       dtype=np.int64)
    return t


def brute_force_assignment(cost):
    cost = np.asarray(cost, dtype=float)
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    m, n = cost.shape
    best = math.inf
    for perm in itertools.permutations(range(n), m):
        best = min(best, sum(cost[i, j] for i, j in enumerate(perm)))
    return best


def test_hungarian_matches_brute_force(rng):
    for _ in range(50):
        m = rng.integers(1, 6)
        n = rng.integers(1, 6)
        cost = rng.integers(0, 100, size=(m, n)).astype(float)
        pairs = hungarian(cost)
        total = sum(cost[i, j] for i, j in pairs)
        assert total == brute_force_assignment(cost)
        assert len(pairs) == min(m, n)


def test_hungarian_empty():
    assert hungarian(np.zeros((0, 3))) == []
    assert hungarian(np.zeros((0, 0))) == []


def test_mahalanobis_identity_is_euclidean():
    d = mahalanobis((3.0, 4.0), (0.0, 0.0), np.eye(2))
    assert abs(d - 5.0) < 1e-12


def test_mahalanobis_scales_by_covariance():
    cov = np.array([[4.0, 0.0], [0.0, 1.0]])
    d = mahalanobis((2.0, 1.0), (0.0, 0.0), cov)
    assert abs(d - math.sqrt(2.0)) < 1e-12


def test_mahalanobis_singular_cov_regularized():
    cov = np.zeros((2, 2))
    d = mahalanobis((1.0, 0.0), (0.0, 0.0), cov)
    assert math.isfinite(d)
    assert d > 100.0  # 1e-6 jitter makes off-model moves expensive


def test_params_validation():
    with pytest.raises(ValueError):
        Track2DParams(delta_top=0.0)
    with pytest.raises(ValueError):
        Track2DParams(tau_k=0)
    with pytest.raises(ValueError):
        Track2DParams(top_mode="nearest")
    p = Track2DParams()
    assert p.gate("top") == 15.0
    assert p.gate("front") == 0.5
    assert p.mode("top") == "euclidean-head"


def test_single_object_single_tracklet():
    frames = {f: [det(10 + f, 20)] for f in range(30)}
    out = build_tracklets(table(frames), Track2DParams(), view="top")
    assert len(out) == 1
    assert out[0].frames.tolist() == list(range(30))
    assert out[0].id == 0


def test_gate_splits_tracklets():
    frames = {0: [det(10, 10)], 1: [det(10 + 14.9, 10)],
              2: [det(10 + 14.9 + 15.1, 10)]}
    out = build_tracklets(table(frames), Track2DParams(), view="top")
    assert [t.frames.tolist() for t in out] == [[0, 1], [2]]


def test_idle_timeout_boundary():
    # gap of exactly tau_k frames rejoins, one more terminates
    frames = {0: [det(10, 10)], 10: [det(11, 10)]}
    out = build_tracklets(table(frames), Track2DParams(tau_k=10), view="top")
    assert len(out) == 1
    frames = {0: [det(10, 10)], 11: [det(11, 10)]}
    out = build_tracklets(table(frames), Track2DParams(tau_k=10), view="top")
    assert len(out) == 2


def test_two_objects_stay_separated():
    frames = {}
    for f in range(40):
        frames[f] = [det(50 + f, 100), det(50 + f, 300)]
    out = build_tracklets(table(frames), Track2DParams(), view="top")
    assert len(out) == 2
    ys = sorted({y for t in out for y in t.detections.head[:, 1].tolist()})
    assert ys == [100.0, 300.0]
    for t in out:
        heights = set(t.detections.head[:, 1].tolist())
        assert len(heights) == 1  # never swaps rows


def test_new_tracklets_in_input_order():
    frames = {0: [det(10, 10), det(200, 200), det(400, 400)]}
    out = build_tracklets(table(frames), Track2DParams(), view="top")
    assert [t.detections.head[0, 0] for t in out] == [10.0, 200.0, 400.0]
    assert [t.id for t in out] == [0, 1, 2]


def test_mahalanobis_mode_direction_sensitive():
    cov = np.array([[100.0, 0.0], [0.0, 1.0]])
    params = Track2DParams(front_mode="mahalanobis-centroid", delta_front=0.5)
    along = {0: [det(10, 10, cov=cov)],
             1: [det(14, 10, cov=cov)]}
    assert len(build_tracklets(table(along), params, view="front")) == 1
    across = {0: [det(10, 10, cov=cov)],
              1: [det(10, 14, cov=cov)]}
    assert len(build_tracklets(table(across), params, view="front")) == 2


def test_mahalanobis_mode_uses_box_surrogate():
    params = Track2DParams(front_mode="mahalanobis-centroid")
    boxed = table({0: [det(5.0, 6.0, bbox=(0.0, 0.0, 6.0, 12.0))]})
    (t,) = build_tracklets(boxed, params, view="front")
    assert np.array_equal(t.detections.cov[0], np.diag([3.0, 12.0]))
    assert t.detections.head[0].tolist() == [5.0, 6.0]
    assert np.isnan(boxed.cov).all()  # the input table is left as it is
    (t,) = build_tracklets(boxed, params, view="top")
    assert np.isnan(t.detections.cov).all()  # euclidean-head mode leaves it


def test_tracklet_frames_come_from_its_column():
    t = tracklet(0, "top", [3, 5, 9])
    assert t.frames.tolist() == [3, 5, 9]
    assert (t.first_frame, t.last_frame) == (3, 9)
    assert type(t.first_frame) is int and type(t.last_frame) is int


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.lists(st.tuples(st.integers(0, 700), st.integers(0, 700)),
             min_size=0, max_size=4),
    min_size=1, max_size=25))
def test_partition_invariants(frames_spec):
    frames = {
        f: [det(x, y) for (x, y) in dets]
        for f, dets in enumerate(frames_spec)}
    params = Track2DParams(tau_k=3)
    out = build_tracklets(table(frames), params, view="top")
    for t in out:
        gaps = np.diff(t.frames)
        assert gaps.min(initial=1) >= 1  # strictly ascending
        assert gaps.max(initial=0) <= params.tau_k
    # Every detection is in exactly one tracklet, at its own frame.
    rows = sorted((f, x, y) for f, dets in enumerate(frames_spec)
                  for x, y in dets)
    assert sorted((f, x, y) for t in out for f, (x, y) in zip(
        t.frames.tolist(), t.detections.head.tolist())) == rows


# The gate distances as build_tracklets used to compute them, one scalar
# call per (detection, tracklet) pair: the reference for gate_matrix.


def scalar_mahalanobis(p, center, cov) -> float:
    d = np.asarray(p, dtype=float) - np.asarray(center, dtype=float)
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
    if np.linalg.eigvalsh(cov)[0] < 1e-12:
        cov = cov + 1e-6 * np.eye(2)
    return float(math.sqrt(d @ np.linalg.solve(cov, d)))


def scalar_distance(det, last, mode) -> float:
    """The distance from `det` to `last`, each a (head, cov or None)."""
    if mode == EUCLIDEAN_HEAD:
        return math.hypot(det[0][0] - last[0][0], det[0][1] - last[0][1])
    cov = last[1] if last[1] is not None else det[1]
    if cov is None:
        cov = np.eye(2)
    return scalar_mahalanobis(det[0], last[0], cov)


def rows(t: DetectionTable) -> list[tuple]:
    """(head, cov or None) of each row."""
    return [(tuple(h), None if np.isnan(c).any() else c)
            for h, c in zip(t.head.tolist(), t.cov)]


coords = st.floats(0.0, 800.0, allow_nan=False)
point = st.tuples(coords, coords)


@st.composite
def gate_detection(draw):
    """A detection as build_tracklets sees it, before its box surrogate: a
    head, and a blob covariance, a box (whose surrogate may be singular:
    zero width or height) or neither."""
    head = draw(point)
    kind = draw(st.sampled_from(["none", "box", "blob"]))
    cov = bbox = None
    if kind == "box":
        bbox = (*head, float(draw(st.integers(0, 80))),
                float(draw(st.integers(0, 80))))
    elif kind == "blob":
        a = draw(st.floats(0.5, 400.0))
        c = draw(st.floats(0.5, 400.0))
        b = draw(st.floats(-0.9, 0.9)) * math.sqrt(a * c)
        cov = np.array([[a, b], [b, c]])
    return DetectionTable.of(head, cov=cov, bbox=bbox)


def check_gate_matrix(dets, lasts, mode):
    # One view's table, the detections first: gate_matrix reads their
    # slice and the last detections' rows.
    t = _box_cov(DetectionTable.concat(dets + lasts))
    got = gate_matrix(t, slice(0, len(dets)),
                      list(range(len(dets), len(t))), mode)
    want = np.array([[scalar_distance(d, last, mode)
                      for last in rows(t)[len(dets):]]
                     for d in rows(t)[:len(dets)]])
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(st.lists(gate_detection(), min_size=1, max_size=6),
       st.lists(gate_detection(), min_size=1, max_size=6),
       st.sampled_from([EUCLIDEAN_HEAD, MAHALANOBIS_CENTROID]))
def test_gate_matrix_equals_scalar_distances(dets, lasts, mode):
    check_gate_matrix(dets, lasts, mode)


def test_gate_matrix_covers_singular_and_missing_covariances():
    # Zero-width and zero-height boxes give singular surrogates; a last
    # detection without any covariance falls back to the new detection's,
    # then to the identity.
    flat = det(5.0, 6.0, bbox=(0.0, 0.0, 0.0, 12.0))
    thin = det(7.0, 2.0, bbox=(0.0, 0.0, 9.0, 0.0))
    bare = det(3.0, 4.0)
    assert np.linalg.eigvalsh(_box_cov(flat).cov[0])[0] < 1e-12
    check_gate_matrix([flat, thin, bare], [bare, flat, thin],
                      MAHALANOBIS_CENTROID)
    assert mahalanobis((1.0, 0.0), (0.0, 0.0), np.zeros((2, 2))) == \
        scalar_mahalanobis((1.0, 0.0), (0.0, 0.0), np.zeros((2, 2)))
