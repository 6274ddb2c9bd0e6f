import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import reference
from stereomot import Detection, DetectParams
from stereomot.detect import (
    _MEDIAN25,
    _MEDIAN25_OUT,
    _ZHANG_SUEN,
    DetectError,
    _median_5x5,
    ENDPOINT_VALUES,
    JUNCTION_VALUES,
    detect_front,
    detect_top,
    entropy_threshold,
    estimate_background,
    fill_holes,
    ingest_external_detections,
    intermodes_threshold,
    kernel_response,
    preprocess,
    skeleton_keypoints,
    skeletonize,
)
from stereomot.formats import write_detections_csv

BG = 235
FISH = 45


def paint_disk(img, cx, cy, r, value):
    h, w = img.shape
    ys, xs = np.ogrid[:h, :w]
    img[(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = value


def test_estimate_background_lower_median():
    frames = [np.full((4, 4), v, dtype=np.uint8) for v in (3, 1, 4, 1, 5)]
    assert estimate_background(frames)[0, 0] == 3
    frames = [np.full((4, 4), v, dtype=np.uint8) for v in (0, 1, 2, 3)]
    assert estimate_background(frames)[0, 0] == 1  # lower of the middle pair


def test_estimate_background_rejects_bad_input():
    with pytest.raises(DetectError):
        estimate_background([])
    with pytest.raises(DetectError):
        estimate_background(iter([]))
    with pytest.raises(DetectError):
        estimate_background([np.zeros((4, 4)), np.zeros((5, 5))])
    with pytest.raises(DetectError):
        estimate_background(np.zeros(s) for s in ((4, 4), (4, 4), (4, 5)))


@st.composite
def low_cardinality_images(draw, max_side=40):
    """uint8 images drawn from a few grey levels, so ties are common."""
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4))
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    return draw(arrays(np.uint8, shape, elements=st.sampled_from(levels),
                       fill=st.nothing()))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.data())
def test_estimate_background_equals_sorted_median(n, data):
    first = data.draw(low_cardinality_images(max_side=12))
    frames = [first] + [
        data.draw(arrays(np.uint8, first.shape,
                         elements=st.integers(0, 255)))
        for _ in range(n - 1)]
    want = np.sort(np.stack(frames), axis=0)[(n - 1) // 2]
    got = estimate_background(frames)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    # A generator gives the same result, and the inputs are not modified.
    assert np.array_equal(estimate_background(f for f in frames), want)
    assert np.array_equal(frames[0], first)


@settings(max_examples=150, deadline=None)
@given(low_cardinality_images())
def test_median_5x5_equals_ndimage(img):
    want = ndimage.median_filter(img, size=5, mode="nearest")
    assert np.array_equal(_median_5x5(img), want)


def test_median_network_selects_the_median_of_every_0_1_input():
    # 0-1 principle: a comparator network that selects the median of every
    # 0/1 input selects it for every input. Input m sets wire k to bit k of
    # m; the 2**20 settings of wires 0-19 are bit-packed, & is min and | is
    # max, and each of the 32 settings of wires 20-24 is one pass.
    assert len(_MEDIAN25) == 113
    low = np.arange(1 << 20, dtype=np.uint32)
    low_wires = [np.packbits((low >> k) & 1) for k in range(20)]
    ones_low = sum((low >> k) & 1 for k in range(20))
    for high in range(1 << 5):
        wires = low_wires + [np.full(low_wires[0].shape, 255 * (high >> k & 1),
                                     dtype=np.uint8) for k in range(5)]
        for lo, hi, keep_min, keep_max in _MEDIAN25:
            a, b = wires[lo], wires[hi]
            if keep_min:
                wires[lo] = a & b
            if keep_max:
                wires[hi] = a | b
        want = np.packbits(ones_low + bin(high).count("1") >= 13)
        assert np.array_equal(wires[_MEDIAN25_OUT], want)


@pytest.mark.parametrize("n", [2, 254, 255, 256, 257])
def test_estimate_background_frame_counts_past_a_byte(n):
    # The per-pixel count of frames below a candidate reaches n, which
    # passes 255 from 256 frames on. Pixel (0, 0) is 0 in every frame and
    # (0, 1) is 255 in every frame: every count there is 0 or n.
    r = np.random.default_rng(n)
    frames = r.integers(0, 256, (n, 3, 5), dtype=np.uint8)
    frames[:, 0, 0] = 0
    frames[:, 0, 1] = 255
    frames[:, 1, :] = r.integers(0, 2, (n, 5)) * 255
    want = np.sort(frames, axis=0)[(n - 1) // 2]
    got = estimate_background(iter(frames))
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


def test_preprocess_identical_frames_zero():
    bg = np.full((32, 32), BG, dtype=np.uint8)
    assert preprocess(bg, bg).max() == 0


def test_preprocess_scales_and_smooths():
    bg = np.zeros((40, 40), dtype=np.uint8)
    frame = np.zeros((40, 40), dtype=np.uint8)
    frame[:, 20:] = 10
    out = preprocess(frame, bg)
    # interior pixels away from the boundary keep their normalized level
    assert out[20, 5] == 0
    assert out[20, 35] == 255
    # an isolated hot pixel does not survive the 5x5 median
    frame2 = np.zeros((40, 40), dtype=np.uint8)
    frame2[10, 10] = 10
    assert preprocess(frame2, bg).max() == 0


def test_preprocess_shape_mismatch():
    with pytest.raises(DetectError):
        preprocess(np.zeros((4, 4)), np.zeros((5, 5)))


def test_intermodes_two_spikes():
    hist = np.zeros(256)
    hist[10] = 100.0
    hist[30] = 100.0
    assert intermodes_threshold(hist) == 20


def test_intermodes_plateau_counts_once():
    hist = np.zeros(256)
    hist[10] = 100.0
    hist[11] = 100.0
    hist[30] = 100.0
    # plateau mode sits at 0.5 within the trimmed histogram
    assert intermodes_threshold(hist) == 20


def test_intermodes_single_bin_raises():
    hist = np.zeros(256)
    hist[42] = 7.0
    with pytest.raises(DetectError):
        intermodes_threshold(hist)


def test_intermodes_separates_gaussian_mixture(rng):
    lo = rng.normal(70, 6, size=4000).clip(40, 110).astype(int)
    hi = rng.normal(185, 10, size=800).clip(150, 230).astype(int)
    hist = np.bincount(np.concatenate([lo, hi]), minlength=256)
    t = intermodes_threshold(hist)
    assert lo.max() <= t < hi.min()


def brute_force_entropy(hist):
    total = sum(hist)
    best, best_t = -math.inf, None
    for t in range(len(hist)):
        p_b = sum(hist[: t + 1]) / total
        if p_b <= 0.0 or p_b >= 1.0:
            continue
        h_b = -sum((c / total) / p_b * math.log((c / total) / p_b)
                   for c in hist[: t + 1] if c > 0)
        h_w = -sum((c / total) / (1 - p_b) * math.log((c / total) / (1 - p_b))
                   for c in hist[t + 1:] if c > 0)
        if h_b + h_w > best:
            best, best_t = h_b + h_w, t
    return best_t


def test_entropy_matches_direct_evaluation(rng):
    for _ in range(20):
        hist = rng.integers(0, 50, size=64)
        hist[rng.integers(0, 64)] += 200  # ensure a dominant mode
        if np.count_nonzero(hist) < 2:
            continue
        assert entropy_threshold(hist) == brute_force_entropy(hist.tolist())


def test_entropy_needs_two_bins():
    hist = np.zeros(256, dtype=int)
    hist[9] = 50
    with pytest.raises(DetectError):
        entropy_threshold(hist)


def no_two_by_two(mask):
    on = mask > 0
    return not (on[1:, 1:] & on[:-1, 1:] & on[1:, :-1] & on[:-1, :-1]).any()


def test_skeletonize_idempotent_and_thin(rng):
    for _ in range(10):
        img = np.zeros((64, 64), dtype=np.uint8)
        for _ in range(rng.integers(2, 5)):
            paint_disk(img, rng.integers(12, 52), rng.integers(12, 52),
                       rng.integers(3, 9), 255)
        skel = skeletonize(img)
        assert no_two_by_two(skel)
        assert np.array_equal(skeletonize(skel), skel)


def test_skeletonize_keeps_thin_structures():
    line = np.zeros((16, 16), dtype=np.uint8)
    line[8, 2:14] = 255
    assert np.array_equal(skeletonize(line), line)
    dot = np.zeros((8, 8), dtype=np.uint8)
    dot[4, 4] = 255
    assert np.array_equal(skeletonize(dot), dot)
    assert skeletonize(np.zeros((8, 8), dtype=np.uint8)).max() == 0


def zhang_suen_removes(p: dict[int, int], step: int) -> bool:
    """The rule of Zhang & Suen (1984) for an on pixel P1 with neighbours
    p[2] (north) clockwise to p[9] (north-west)."""
    b = sum(p[i] for i in range(2, 10))
    seq = [p[i] for i in range(2, 10)] + [p[2]]
    a = sum(1 for i in range(8) if (seq[i], seq[i + 1]) == (0, 1))
    if step == 0:
        c = p[2] * p[4] * p[6] == 0
        d = p[4] * p[6] * p[8] == 0
    else:
        c = p[2] * p[4] * p[8] == 0
        d = p[2] * p[6] * p[8] == 0
    return 2 <= b <= 6 and a == 1 and c and d


def test_zhang_suen_tables_hold_the_rule_for_every_neighbourhood():
    for step in (0, 1):
        for code in range(256):
            p = {i + 2: code >> i & 1 for i in range(8)}
            assert bool(_ZHANG_SUEN[step][code]) == zhang_suen_removes(
                p, step), (step, code)


@st.composite
def binary_masks(draw, max_side=24):
    """0/255 masks: pixel noise, or a union of filled rectangles, which
    takes several thinning passes."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    if draw(st.booleans()):
        return draw(arrays(np.uint8, shape,
                           elements=st.sampled_from([0, 255])))
    mask = np.zeros(shape, dtype=np.uint8)
    for _ in range(draw(st.integers(0, 4))):
        y0 = draw(st.integers(0, shape[0] - 1))
        x0 = draw(st.integers(0, shape[1] - 1))
        y1 = draw(st.integers(y0 + 1, shape[0]))
        x1 = draw(st.integers(x0 + 1, shape[1]))
        mask[y0:y1, x0:x1] = 255
    return mask


EDGE_MASKS = [
    np.zeros((1, 1), dtype=np.uint8),
    np.full((1, 1), 255, dtype=np.uint8),
    np.zeros((6, 9), dtype=np.uint8),
    np.full((6, 9), 255, dtype=np.uint8),
    np.full((20, 20), 255, dtype=np.uint8),
    np.full((1, 12), 255, dtype=np.uint8),
    np.full((12, 1), 255, dtype=np.uint8),
    np.eye(7, dtype=np.uint8) * 255,
    np.pad(np.full((3, 5), 255, dtype=np.uint8), ((0, 2), (3, 0))),
]


def with_examples(masks):
    def decorate(test):
        for mask in masks:
            test = example(mask)(test)
        return test
    return decorate


@settings(max_examples=200, deadline=None)
@with_examples(EDGE_MASKS)
@given(binary_masks())
def test_skeletonize_equals_whole_image_reference(mask):
    got = skeletonize(mask)
    assert got.dtype == np.uint8
    assert np.array_equal(got, reference.skeletonize(mask))


@settings(max_examples=200, deadline=None)
@with_examples(EDGE_MASKS)
@given(binary_masks())
def test_kernel_response_equals_convolution(mask):
    got = kernel_response(mask)
    assert got.shape == mask.shape
    assert np.array_equal(got, reference.kernel_response(mask))


def test_kernel_response_endpoint_values():
    img = np.zeros((16, 16), dtype=np.uint8)
    img[8, 3:12] = 255
    resp = kernel_response(img)
    assert resp[8, 3] == 116
    assert resp[8, 11] == 116
    assert resp[8, 3] in ENDPOINT_VALUES
    diag = np.zeros((16, 16), dtype=np.uint8)
    for k in range(3, 12):
        diag[k, k] = 255
    resp = kernel_response(diag)
    assert resp[3, 3] in ENDPOINT_VALUES
    assert resp[11, 11] in ENDPOINT_VALUES


def test_kernel_response_junction_values():
    img = np.zeros((16, 16), dtype=np.uint8)
    img[8, 4:13] = 255   # horizontal bar
    img[9:13, 8] = 255   # stem down
    resp = kernel_response(img)
    assert resp[8, 8] == 148
    assert resp[8, 8] in JUNCTION_VALUES


def test_published_value_sets():
    assert ENDPOINT_VALUES == frozenset({116, 117, 118, 131})
    assert JUNCTION_VALUES == frozenset({148, 149, 150, 151})


def test_skeleton_keypoints_classify_and_weight():
    blob = np.zeros((40, 40), dtype=np.uint8)
    blob[14:23, 4:33] = 255
    blob[18:33, 14:23] = 255
    skel = skeletonize(blob)
    kps = skeleton_keypoints(skel, blob, DetectParams())
    kinds = {k.kind for k in kps}
    assert "endpoint" in kinds
    assert all(k.weight >= 1.0 for k in kps)
    # junction weight is the window weight cut by the divisor, so the raw
    # endpoint of the long bar must outweigh any junction keypoint
    if "junction" in kinds:
        max_j = max(k.weight for k in kps if k.kind == "junction")
        max_e = max(k.weight for k in kps if k.kind == "endpoint")
        assert max_e > max_j


def test_fill_holes_ring_and_open_shape():
    ring = np.zeros((24, 24), dtype=np.uint8)
    paint_disk(ring, 12, 12, 8, 1)
    paint_disk(ring, 12, 12, 4, 0)
    filled = fill_holes(ring)
    assert filled[12, 12]
    opened = ring.copy()
    opened[10:15, 12:24] = 0  # cut a channel from the hole to the border
    refilled = fill_holes(opened)
    assert not refilled[12, 18]


def make_top_scene():
    img = np.full((200, 200), BG, dtype=np.uint8)
    bg = np.full((200, 200), BG, dtype=np.uint8)
    # tapered body: wide head at x=40, thin tail at x=120
    for i, x in enumerate(range(40, 128, 8)):
        paint_disk(img, x, 100, 12 - i, FISH)
    return img, bg


def test_detect_top_picks_wide_end():
    img, bg = make_top_scene()
    dets = detect_top(img, bg[::2, ::2], DetectParams(n_fish=1))
    assert dets
    best = dets[0]
    assert best.view == "top"
    assert best.candidates == (best.head,)
    assert abs(best.head[1] - 100) < 10
    # nearer the wide end than the tail
    assert best.head[0] < 80


def test_detect_top_empty_when_blank():
    bg = np.full((64, 64), BG, dtype=np.uint8)
    assert detect_top(bg, bg[::2, ::2]) == []


def make_front_scene():
    img = np.full((200, 200), BG, dtype=np.uint8)
    bg = np.full((200, 200), BG, dtype=np.uint8)
    for cx, cy in ((50, 60), (140, 120)):
        ys, xs = np.ogrid[:200, :200]
        ell = ((xs - cx) / 20.0) ** 2 + ((ys - cy) / 8.0) ** 2 <= 1.0
        img[ell] = FISH
    return img, bg


def test_detect_front_blobs():
    img, bg = make_front_scene()
    dets = detect_front(img, bg[::2, ::2], DetectParams(n_fish=2))
    assert len(dets) == 2
    centers = sorted(d.centroid for d in dets)
    assert abs(centers[0][0] - 50) < 6 and abs(centers[0][1] - 60) < 6
    assert abs(centers[1][0] - 140) < 6 and abs(centers[1][1] - 120) < 6
    for d in dets:
        assert len(d.candidates) == 3
        # wider than tall: proxies sit left and right of the centroid
        xs = sorted(c[0] for c in d.candidates)
        assert xs[0] < d.centroid[0] < xs[2]
        assert d.cov is not None and d.cov[0, 0] > d.cov[1, 1]
        assert d.bbox is not None


def test_detect_front_area_filter_and_cap():
    img = np.full((200, 200), BG, dtype=np.uint8)
    bg = img.copy()
    paint_disk(img, 30, 30, 3, FISH)  # ~28 px at full res, <20 downsampled
    assert detect_front(img, bg[::2, ::2], DetectParams(n_fish=2)) == []
    img2 = np.full((300, 300), BG, dtype=np.uint8)
    for k in range(5):
        paint_disk(img2, 40 + 50 * k, 150, 14, FISH)
    dets = detect_front(img2, np.full((150, 150), BG, dtype=np.uint8),
                        DetectParams(n_fish=2))
    assert len(dets) == 4  # capped at 2 per expected fish


def test_ingest_external_detections(tmp_path):
    rows = {
        "top": {0: [Detection(frame=0, view="top", head=(1.0, 1.0),
                              candidates=((1.0, 1.0),),
                              bbox=(10.0, 20.0, 4.0, 6.0), confidence=99.0),
                    Detection(frame=0, view="top", head=(2.0, 2.0),
                              candidates=((2.0, 2.0),),
                              bbox=(0.0, 0.0, 2.0, 2.0), confidence=10.0)]},
        "front": {},
    }
    path = tmp_path / "detections.csv"
    write_detections_csv(path, rows, {"seed": 0})
    per_view = ingest_external_detections(path, min_confidence=95.0)
    assert per_view["front"] == {} and list(per_view["top"]) == [0]
    (det,) = per_view["top"][0]
    assert det.head == (12.0, 23.0)  # box center replaces the stored head
    assert det.confidence == 99.0


def test_ingest_requires_bbox(tmp_path):
    rows = {
        "top": {0: [Detection(frame=0, view="top", head=(1.0, 1.0),
                              candidates=((1.0, 1.0),), confidence=99.0)]},
        "front": {},
    }
    path = tmp_path / "detections.csv"
    write_detections_csv(path, rows, {})
    with pytest.raises(DetectError, match=str(path)):
        ingest_external_detections(path)
