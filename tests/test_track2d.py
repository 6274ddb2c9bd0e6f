import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereomot import Detection, Track2DParams, Tracklet2D, build_tracklets
from stereomot.track2d import (EUCLIDEAN_HEAD, MAHALANOBIS_CENTROID,
                               _box_cov, gate_matrix, hungarian, mahalanobis)


def det(x, y, cov=None):
    head = (float(x), float(y))
    return Detection(head=head, candidates=(head,), cov=cov)


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
    out = build_tracklets(frames, Track2DParams(), view="top")
    assert len(out) == 1
    assert out[0].frames == list(range(30))
    assert out[0].id == 0


def test_gate_splits_tracklets():
    frames = {0: [det(10, 10)], 1: [det(10 + 14.9, 10)],
              2: [det(10 + 14.9 + 15.1, 10)]}
    out = build_tracklets(frames, Track2DParams(), view="top")
    assert [t.frames for t in out] == [[0, 1], [2]]


def test_idle_timeout_boundary():
    # gap of exactly tau_k frames rejoins, one more terminates
    frames = {0: [det(10, 10)], 10: [det(11, 10)]}
    out = build_tracklets(frames, Track2DParams(tau_k=10), view="top")
    assert len(out) == 1
    frames = {0: [det(10, 10)], 11: [det(11, 10)]}
    out = build_tracklets(frames, Track2DParams(tau_k=10), view="top")
    assert len(out) == 2


def test_two_objects_stay_separated():
    frames = {}
    for f in range(40):
        frames[f] = [det(50 + f, 100), det(50 + f, 300)]
    out = build_tracklets(frames, Track2DParams(), view="top")
    assert len(out) == 2
    ys = sorted({d.head[1] for t in out for d in t.detections.values()})
    assert ys == [100.0, 300.0]
    for t in out:
        heights = {d.head[1] for d in t.detections.values()}
        assert len(heights) == 1  # never swaps rows


def test_new_tracklets_in_input_order():
    frames = {0: [det(10, 10), det(200, 200), det(400, 400)]}
    out = build_tracklets(frames, Track2DParams(), view="top")
    assert [t.detections[0].head[0] for t in out] == [10.0, 200.0, 400.0]
    assert [t.id for t in out] == [0, 1, 2]


def test_mahalanobis_mode_direction_sensitive():
    cov = np.array([[100.0, 0.0], [0.0, 1.0]])
    params = Track2DParams(front_mode="mahalanobis-centroid", delta_front=0.5)
    along = {0: [det(10, 10, cov=cov)],
             1: [det(14, 10, cov=cov)]}
    assert len(build_tracklets(along, params, view="front")) == 1
    across = {0: [det(10, 10, cov=cov)],
              1: [det(10, 14, cov=cov)]}
    assert len(build_tracklets(across, params, view="front")) == 2


def test_mahalanobis_mode_uses_box_surrogate():
    params = Track2DParams(front_mode="mahalanobis-centroid")
    boxed = Detection(head=(5.0, 6.0), candidates=((5.0, 6.0),),
                      bbox=(0.0, 0.0, 6.0, 12.0))
    (t,) = build_tracklets({0: [boxed]}, params, view="front")
    d = t.detections[0]
    assert np.array_equal(d.cov, np.diag([3.0, 12.0]))
    assert d.head == (5.0, 6.0)
    (t,) = build_tracklets({0: [boxed]}, params, view="top")
    assert t.detections[0].cov is None  # euclidean-head mode leaves it


def test_tracklet_append_monotonic():
    t = Tracklet2D(id=0, view="top")
    t.append(3, det(1, 1))
    with pytest.raises(ValueError):
        t.append(3, det(2, 2))
    with pytest.raises(ValueError):
        t.append(1, det(2, 2))
    t.append(5, det(2, 2))
    assert t.first_frame == 3
    assert t.last_frame == 5
    assert t.last_detection.head == (2.0, 2.0)


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
    out = build_tracklets(frames, params, view="top")
    n_dets = sum(len(v) for v in frames.values())
    assert sum(len(t.frames) for t in out) == n_dets
    seen = set()
    for t in out:
        assert t.frames == sorted(t.frames)
        assert len(set(t.frames)) == len(t.frames)
        gaps = np.diff(t.frames)
        assert not len(gaps) or gaps.max() <= params.tau_k
        for f in t.frames:
            key = (f, id(t.detections[f]))
            assert key not in seen
            seen.add(key)
        for f in t.frames:
            assert t.detections[f] in frames[f]


# The gate distances as build_tracklets used to compute them, one scalar
# call per (detection, tracklet) pair: the reference for gate_matrix.


def scalar_mahalanobis(p, center, cov) -> float:
    d = np.asarray(p, dtype=float) - np.asarray(center, dtype=float)
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
    if np.linalg.eigvalsh(cov)[0] < 1e-12:
        cov = cov + 1e-6 * np.eye(2)
    return float(math.sqrt(d @ np.linalg.solve(cov, d)))


def scalar_distance(det, last, mode) -> float:
    if mode == EUCLIDEAN_HEAD:
        return math.hypot(det.head[0] - last.head[0],
                          det.head[1] - last.head[1])
    cov = last.cov if last.cov is not None else det.cov
    if cov is None:
        cov = np.eye(2)
    return scalar_mahalanobis(det.head, last.head, cov)


coords = st.floats(0.0, 800.0, allow_nan=False)
point = st.tuples(coords, coords)


@st.composite
def gate_detection(draw):
    """A detection as build_tracklets sees it: a head, and a blob
    covariance, a box (whose surrogate may be singular: zero width or
    height) or neither."""
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
    det = Detection(head=head, candidates=(head,), cov=cov, bbox=bbox)
    return _box_cov(det)


@settings(max_examples=300, deadline=None)
@given(st.lists(gate_detection(), min_size=1, max_size=6),
       st.lists(gate_detection(), min_size=1, max_size=6),
       st.sampled_from([EUCLIDEAN_HEAD, MAHALANOBIS_CENTROID]))
def test_gate_matrix_equals_scalar_distances(dets, lasts, mode):
    want = np.array([[scalar_distance(d, t, mode) for t in lasts]
                     for d in dets])
    got = gate_matrix(dets, lasts, mode)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_gate_matrix_covers_singular_and_missing_covariances():
    # Zero-width and zero-height boxes give singular surrogates; a last
    # detection without any covariance falls back to the new detection's,
    # then to the identity.
    flat = _box_cov(Detection(head=(5.0, 6.0), candidates=((5.0, 6.0),),
                              bbox=(0.0, 0.0, 0.0, 12.0)))
    thin = _box_cov(Detection(head=(7.0, 2.0), candidates=((7.0, 2.0),),
                              bbox=(0.0, 0.0, 9.0, 0.0)))
    bare = det(3.0, 4.0)
    assert np.linalg.eigvalsh(flat.cov)[0] < 1e-12
    dets, lasts = [flat, thin, bare], [bare, flat, thin]
    want = np.array([[scalar_distance(d, t, MAHALANOBIS_CENTROID)
                      for t in lasts] for d in dets])
    assert np.array_equal(gate_matrix(dets, lasts, MAHALANOBIS_CENTROID),
                          want)
    assert mahalanobis((1.0, 0.0), (0.0, 0.0), np.zeros((2, 2))) == \
        scalar_mahalanobis((1.0, 0.0), (0.0, 0.0), np.zeros((2, 2)))
