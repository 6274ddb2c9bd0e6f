import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import reference
from stereomot import DetectionTable, DetectParams, detect
from stereomot.detect import (
    _BG_ROWS,
    _COLUMN_SORT,
    _MEDIAN_NET,
    _MEDIAN_OUT,
    _STRIP_ROWS,
    _ZHANG_SUEN,
    DetectError,
    Keypoint,
    _foreground,
    _histogram,
    _median_5x5,
    _modes,
    _suppress,
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
from stereomot.formats import FormatError, write_detections_csv

BG = 235
FISH = 45


def paint_disk(img, cx, cy, r, value):
    h, w = img.shape
    ys, xs = np.ogrid[:h, :w]
    img[(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = value


def test_estimate_background_lower_median():
    stack = np.repeat(np.uint8([3, 1, 4, 1, 5]), 16).reshape(5, 4, 4)
    assert estimate_background(stack)[0, 0] == 3
    stack = np.repeat(np.uint8([0, 1, 2, 3]), 16).reshape(4, 4, 4)
    assert estimate_background(stack)[0, 0] == 1  # lower of the middle pair


def test_estimate_background_rejects_bad_input():
    frames = [np.zeros((4, 4), dtype=np.uint8)] * 3
    for bad in ([], frames, (f for f in frames), iter(np.stack(frames)),
                np.zeros((3, 4, 4)), np.zeros((3, 4, 4), dtype=np.int16),
                np.zeros((4, 4), dtype=np.uint8),
                np.zeros((1, 3, 4, 4), dtype=np.uint8)):
        with pytest.raises(DetectError, match=r"takes an \(n, h, w\) uint8"):
            estimate_background(bad)
    with pytest.raises(DetectError, match="at least one frame"):
        estimate_background(np.zeros((0, 4, 4), dtype=np.uint8))


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
    stack = np.stack(frames)
    want = np.sort(stack, axis=0)[(n - 1) // 2]
    got = estimate_background(stack)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    assert np.array_equal(stack, np.stack(frames))  # the input is unchanged


@st.composite
def strip_edge_images(draw, max_width=9):
    """Images whose height is 1, or one strip of the median minus one, one
    or plus one, or two strips plus one; widths from 1."""
    h = draw(st.sampled_from([1, _STRIP_ROWS - 1, _STRIP_ROWS,
                              _STRIP_ROWS + 1, 2 * _STRIP_ROWS + 1]))
    w = draw(st.integers(1, max_width))
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4))
    return draw(arrays(np.uint8, (h, w), elements=st.sampled_from(levels)))


def assert_median_equals_ndimage(img):
    want = ndimage.median_filter(img, size=5, mode="nearest")
    assert np.array_equal(_median_5x5(img), want)


@settings(max_examples=150, deadline=None)
@given(low_cardinality_images() | strip_edge_images())
def test_median_5x5_equals_ndimage(img):
    assert_median_equals_ndimage(img)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(strip_edge_images(max_width=40))
def test_median_5x5_equals_ndimage_at_strip_edges_at_length(img):
    assert_median_equals_ndimage(img)


def test_median_network_selects_the_median_of_every_0_1_input():
    # 0-1 principle: a comparator network that selects the median of every
    # 0/1 input selects it for every input. Input m sets pixel k (row k // 5,
    # column k % 5) to bit k of m; the 2**20 settings of rows 0-3 are
    # bit-packed, & is min and | is max, and each of the 32 settings of row
    # 4 is one pass. Each column is sorted, and then the network selects.
    assert len(_COLUMN_SORT) == 9
    assert len(_MEDIAN_NET) == 69
    assert sum(keep_min + keep_max for _, _, keep_min, keep_max
               in _MEDIAN_NET) == 114
    low = np.arange(1 << 20, dtype=np.uint32)
    low_wires = [np.packbits((low >> k) & 1) for k in range(20)]
    ones_low = sum((low >> k) & 1 for k in range(20))
    for high in range(1 << 5):
        wires = low_wires + [np.full(low_wires[0].shape, 255 * (high >> k & 1),
                                     dtype=np.uint8) for k in range(5)]
        for c in range(5):
            for a, b in _COLUMN_SORT:
                lo, hi = 5 * a + c, 5 * b + c
                wires[lo], wires[hi] = wires[lo] & wires[hi], wires[lo] | wires[hi]
        for lo, hi, keep_min, keep_max in _MEDIAN_NET:
            a, b = wires[lo], wires[hi]
            if keep_min:
                wires[lo] = a & b
            if keep_max:
                wires[hi] = a | b
        want = np.packbits(ones_low + bin(high).count("1") >= 13)
        assert np.array_equal(wires[_MEDIAN_OUT], want)


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
    got = estimate_background(frames)
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_preprocess_equals_normalizing_before_the_median(data):
    # The median is taken before the normalization table; the reference
    # normalizes in floats first.
    frame = data.draw(low_cardinality_images())
    bg = data.draw(arrays(np.uint8, frame.shape,
                          elements=st.sampled_from([0, 7, 200, 255])))
    got = preprocess(frame, bg)
    assert got.dtype == np.uint8
    assert np.array_equal(got, reference.preprocess(frame, bg))


def test_non_uint8_input_raises():
    u8 = np.zeros((8, 8), dtype=np.uint8)
    for bad in (np.zeros((8, 8)), np.zeros((8, 8), dtype=np.int16),
                np.zeros((8, 8), dtype=bool)):
        with pytest.raises(DetectError, match="uint8"):
            preprocess(bad, u8)
        with pytest.raises(DetectError, match="uint8"):
            preprocess(u8, bad)
        with pytest.raises(DetectError, match="uint8"):
            detect_top(bad, u8, DetectParams(downsample=1))
        with pytest.raises(DetectError, match="uint8"):
            detect_front(u8, bad, DetectParams(downsample=1))


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


@st.composite
def placed_masks(draw, max_side=24, max_margin=12):
    """A `binary_masks` mask placed in a larger blank grid, with a margin
    of 0 to max_margin pixels on each side: 0 puts it on that edge."""
    mask = draw(binary_masks(max_side))
    top, bottom, left, right = (draw(st.integers(0, max_margin))
                                for _ in range(4))
    return np.pad(mask, ((top, bottom), (left, right)))


def one_pixel(shape, y, x):
    mask = np.zeros(shape, dtype=np.uint8)
    mask[y, x] = 255
    return mask


def edge_bar(side):
    """A 3-pixel-thick bar along one edge of a 30x30 grid, with a hole."""
    mask = np.zeros((30, 30), dtype=np.uint8)
    bar = {"top": np.s_[:3, 5:25], "bottom": np.s_[-3:, 5:25],
           "left": np.s_[5:25, :3], "right": np.s_[5:25, -3:]}[side]
    mask[bar] = 255
    return mask


CROP_MASKS = [
    np.zeros((20, 20), dtype=np.uint8),
    one_pixel((20, 20), 7, 11), one_pixel((20, 20), 0, 0),
    one_pixel((20, 20), 19, 19), one_pixel((1, 1), 0, 0),
    *(edge_bar(side) for side in ("top", "bottom", "left", "right")),
    np.pad(np.full((12, 18), 255, dtype=np.uint8), 9),
    np.pad(np.pad(np.zeros((4, 4), dtype=np.uint8), 4,
                  constant_values=255), ((0, 6), (7, 0))),
]


IDENTITY = np.arange(256, dtype=np.uint8)


def check_top_crop(mask):
    # The detector's view of `mask`: patch the median-and-table step to
    # return it with the identity table, so the threshold falls between 0
    # and 255 and the foreground is the mask. The keypoints it finds,
    # weights included, are recorded and compared with the whole-grid
    # reference's, which reads the same step through `preprocess`.
    pre = np.where(mask > 0, 255, 0).astype(np.uint8)
    filled = reference.fill_holes(pre)
    skel = reference.skeletonize(filled)
    found = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detect, "_median_diff", lambda grid, bg: (pre, IDENTITY))
        mp.setattr(detect, "skeleton_keypoints", lambda *args: found.append(
            skeleton_keypoints(*args)) or found[-1])
        for params in (DetectParams(), DetectParams(downsample=1),
                       DetectParams(downsample=3, min_keypoint_weight=0.5)):
            found.clear()
            want = reference.detect_top(pre, None, params)
            assert reference.same_table(detect_top(pre, None, params), want)
            assert found == ([reference.skeleton_keypoints(skel, filled, params)]
                             if pre.min() < pre.max() else [])


@settings(max_examples=60, deadline=None)
@with_examples(CROP_MASKS)
@given(placed_masks())
def test_detect_top_on_the_bounding_box_equals_the_whole_grid(mask):
    check_top_crop(mask)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(placed_masks(max_side=40, max_margin=25))
def test_detect_top_on_the_bounding_box_equals_the_whole_grid_at_length(mask):
    check_top_crop(mask)


def test_detect_top_on_scenes_equals_the_whole_grid():
    img, bg = make_top_scene()
    for params in (DetectParams(), DetectParams(downsample=1)):
        f = params.downsample
        assert reference.same_table(
            detect_top(img[::f, ::f], bg[::f, ::f], params),
            reference.detect_top(img[::f, ::f], bg[::f, ::f], params))


@st.composite
def frame_pairs(draw, max_side=12):
    """(frame, background) uint8 pairs: full-range noise or a few grey
    levels (so the difference may stop below 255), against an independent
    background, the frame itself (a zero-range difference) or the frame
    shifted by a constant. Heights include 1, odd sizes and 257 rows."""
    shape = (draw(st.sampled_from([1, 7, 257]) | st.integers(1, max_side)),
             draw(st.integers(1, max_side)))
    if draw(st.booleans()):
        levels = st.integers(0, 255)
    else:
        levels = st.sampled_from(draw(st.lists(st.integers(0, 255),
                                               min_size=1, max_size=4)))
    frame = draw(arrays(np.uint8, shape, elements=levels))
    bg = draw(st.sampled_from(["own", "same", "shift"]))
    if bg == "same":
        return frame, frame.copy()
    if bg == "shift":
        return frame, (frame + np.uint8(draw(st.integers(1, 255))))
    return frame, draw(arrays(np.uint8, shape, elements=levels))


def check_foreground(frame, bg):
    assert np.array_equal(_histogram(frame),
                          np.bincount(frame.ravel(), minlength=256))
    for threshold in (intermodes_threshold, entropy_threshold):
        got = _foreground(frame, bg, threshold)
        want = reference.foreground(frame, bg, threshold)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == bool and np.array_equal(got, want)


# A 1x1 pair, a zero-range difference, 257 rows of noise, and a
# difference that stops at 40.
FOREGROUND_PAIRS = [
    (np.zeros((1, 1), dtype=np.uint8), np.full((1, 1), 9, dtype=np.uint8)),
    (np.full((7, 9), 40, dtype=np.uint8), np.full((7, 9), 40, dtype=np.uint8)),
    (np.random.default_rng(0).integers(0, 256, (257, 5), dtype=np.uint8),
     np.random.default_rng(1).integers(0, 256, (257, 5), dtype=np.uint8)),
    (np.random.default_rng(2).integers(0, 41, (31, 33), dtype=np.uint8),
     np.zeros((31, 33), dtype=np.uint8)),
]


@settings(max_examples=80, deadline=None)
@with_examples(FOREGROUND_PAIRS)
@given(frame_pairs())
def test_thresholds_on_the_median_equal_thresholding_the_normalized_image(
        pair):
    check_foreground(*pair)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(frame_pairs(max_side=40))
def test_thresholds_on_the_median_equal_thresholding_at_length(pair):
    check_foreground(*pair)


def check_front_blobs(mask):
    # As in check_top_crop: the foreground is the mask, and the reference
    # takes each blob's pixels from its find_objects box.
    pre = np.where(mask > 0, 255, 0).astype(np.uint8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detect, "_median_diff", lambda grid, bg: (pre, IDENTITY))
        for params in (DetectParams(n_fish=1, min_blob_area=1),
                       DetectParams(n_fish=3, min_blob_area=2, downsample=1),
                       DetectParams(n_fish=2, min_blob_area=5, downsample=3)):
            assert reference.same_table(
                detect_front(pre, None, params),
                reference.detect_front(pre, None, params))


# Dense noise: large blobs of many pixels each, whose covariance bits
# depend on the order their pixels are summed in.
NOISE_MASKS = [(np.random.default_rng(seed).random((80, 90)) < p) * 255
               for seed, p in ((0, 0.3), (1, 0.55))]


@settings(max_examples=60, deadline=None)
@with_examples(CROP_MASKS + NOISE_MASKS)
@given(placed_masks())
def test_front_blobs_equal_the_find_objects_walk(mask):
    check_front_blobs(mask)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(placed_masks(max_side=40, max_margin=25))
def test_front_blobs_equal_the_find_objects_walk_at_length(mask):
    check_front_blobs(mask)


def test_front_blobs_on_scenes_equal_the_find_objects_walk():
    img, bg = make_front_scene()
    for params in (DetectParams(n_fish=2), DetectParams(downsample=1)):
        f = params.downsample
        assert reference.same_table(
            detect_front(img[::f, ::f], bg[::f, ::f], params),
            reference.detect_front(img[::f, ::f], bg[::f, ::f], params))


HISTOGRAMS = [[], [0.0], [4.0], [0.0, 0.0], [2.0, 2.0, 2.0], [1.0, 3.0, 3.0, 1.0],
              [3.0, 3.0, 1.0, 3.0, 3.0], [0.0, 5.0, 0.0, 5.0, 5.0, 0.0]]


def check_modes(hist):
    assert _modes(np.array(hist, dtype=np.float64)) == reference.modes(hist)


@settings(max_examples=200, deadline=None)
@with_examples(HISTOGRAMS)
@given(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]) | st.floats(0, 9),
                max_size=30))
def test_modes_equal_the_loop(hist):
    check_modes(hist)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0, 9),
                max_size=300))
def test_modes_equal_the_loop_at_length(hist):
    check_modes(hist)


def check_background(stack):
    before = stack.copy()
    got = estimate_background(stack)
    assert got.dtype == np.uint8
    assert np.array_equal(got, reference.estimate_background(stack))
    assert np.array_equal(stack, before)


def background_stacks(max_n, max_width):
    """(n, h, w) uint8 stacks with n even or odd and heights on both
    sides of the chunk edges."""
    heights = st.sampled_from([1, _BG_ROWS - 1, _BG_ROWS, _BG_ROWS + 1,
                               2 * _BG_ROWS + 3]) | st.integers(1, 40)
    return st.tuples(st.integers(1, max_n), heights,
                     st.integers(1, max_width)).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 255)))


@settings(max_examples=40, deadline=None)
@given(background_stacks(max_n=8, max_width=5))
def test_estimate_background_in_chunks_equals_the_whole_stack(stack):
    check_background(stack)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(background_stacks(max_n=41, max_width=17))
def test_estimate_background_in_chunks_equals_the_whole_stack_at_length(
        stack):
    check_background(stack)


@st.composite
def keypoint_lists(draw):
    """Keypoints sorted as the detector sorts them, on a small grid so
    boxes overlap, with zero and negative weights and repeated points and
    weights."""
    weight = st.sampled_from([0.0, -1.0, 1.0, 2.5, 4.0]) | st.floats(1e-6, 20)
    rows = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                                   weight), max_size=25))
    found = [Keypoint((x, y), w, "endpoint") for x, y, w in rows]
    return sorted(found, key=lambda k: (-k.weight, k.point[1], k.point[0]))


@settings(max_examples=300, deadline=None)
@given(keypoint_lists(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]))
def test_suppress_equals_the_pairwise_loop(found, thresh):
    got = _suppress(found, thresh)
    assert [id(k) for k in got] == [id(k) for k in reference.suppress(found, thresh)]


@settings(max_examples=200, deadline=None)
@with_examples(EDGE_MASKS + CROP_MASKS)
@given(placed_masks())
def test_fill_holes_equals_the_edge_label_walk(mask):
    got = fill_holes(mask)
    assert got.dtype == bool
    assert np.array_equal(got, reference.fill_holes(mask))


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
    dets = detect_top(img[::2, ::2], bg[::2, ::2], DetectParams(n_fish=1))
    assert len(dets)
    x, y = dets.head[0]
    assert np.array_equal(dets.cands[0, 0], dets.head[0])  # the head alone
    assert np.isnan(dets.cands[0, 1:]).all()
    assert abs(y - 100) < 10
    # nearer the wide end than the tail
    assert x < 80


def test_detect_top_empty_when_blank():
    bg = np.full((64, 64), BG, dtype=np.uint8)
    assert len(detect_top(bg[::2, ::2], bg[::2, ::2])) == 0


def test_detectors_refuse_a_full_size_frame_with_a_grid_background():
    for img, bg in (make_top_scene(), make_front_scene()):
        for detector in (detect_top, detect_front):
            with pytest.raises(DetectError, match="dimensions differ"):
                detector(img, bg[::2, ::2])


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
    dets = detect_front(img[::2, ::2], bg[::2, ::2], DetectParams(n_fish=2))
    assert len(dets) == 2
    centers = sorted(dets.head.tolist())  # a blob's head is its centroid
    assert abs(centers[0][0] - 50) < 6 and abs(centers[0][1] - 60) < 6
    assert abs(centers[1][0] - 140) < 6 and abs(centers[1][1] - 120) < 6
    assert not np.isnan(dets.cands).any()  # three candidates each
    assert not np.isnan(dets.bbox).any()
    for head, cands, cov in zip(dets.head, dets.cands, dets.cov):
        # wider than tall: proxies sit left and right of the centroid
        xs = sorted(cands[:, 0])
        assert xs[0] < head[0] < xs[2]
        assert cov[0, 0] > cov[1, 1]


def test_detect_front_area_filter_and_cap():
    img = np.full((200, 200), BG, dtype=np.uint8)
    bg = img.copy()
    paint_disk(img, 30, 30, 3, FISH)  # ~28 px at full res, <20 downsampled
    assert len(detect_front(img[::2, ::2], bg[::2, ::2],
                            DetectParams(n_fish=2))) == 0
    img2 = np.full((300, 300), BG, dtype=np.uint8)
    for k in range(5):
        paint_disk(img2, 40 + 50 * k, 150, 14, FISH)
    bg2 = np.full((150, 150), BG, dtype=np.uint8)
    dets = detect_front(img2[::2, ::2], bg2, DetectParams(n_fish=2))
    assert len(dets) == 4  # capped at 2 per expected fish


def test_ingest_external_detections(tmp_path):
    rows = {"top": DetectionTable.of(
        [(1.0, 1.0), (2.0, 2.0)], bbox=[(10.0, 20.0, 4.0, 6.0),
                                        (0.0, 0.0, 2.0, 2.0)],
        confidence=[99.0, 10.0])}
    path = tmp_path / "detections.csv"
    write_detections_csv(path, rows, {"seed": 0})
    per_view = ingest_external_detections(path, min_confidence=95.0)
    assert len(per_view["front"]) == 0
    top = per_view["top"]
    assert top.frame.tolist() == [0]
    assert top.head.tolist() == [[12.0, 23.0]]  # box center replaces the head
    assert top.cands[0].tolist()[0] == [12.0, 23.0]
    assert top.confidence.tolist() == [99.0]


def test_ingest_requires_bbox(tmp_path):
    rows = {"top": DetectionTable.of([(1.0, 1.0)], confidence=99.0)}
    path = tmp_path / "detections.csv"
    write_detections_csv(path, rows, {})
    with pytest.raises(FormatError) as e:
        ingest_external_detections(path)
    assert str(e.value) == f"{path}:3: field 'bbox_x' must be a number, got ''"


def test_ingest_reports_the_earliest_bad_line(tmp_path):
    # Line 4 has no confidence, and line 900, in a later block of rows, a
    # bad x: the error names line 4, as a row-by-row reader would.
    rows = [f"{f},top,1.0,1.0,0.0,0.0,2.0,2.0,99.0,,,,,," for f in range(899)]
    rows[2] = "2,top,1.0,1.0,0.0,0.0,2.0,2.0,,,,,,,"
    rows[898] = "898,top,abc,1.0,0.0,0.0,2.0,2.0,99.0,,,,,,"
    path = tmp_path / "detections.csv"
    path.write_text("frame,view,x,y,bbox_x,bbox_y,bbox_w,bbox_h,confidence,"
                    "c1x,c1y,c2x,c2y,c3x,c3y\n" + "\n".join(rows) + "\n")
    with pytest.raises(FormatError) as e:
        ingest_external_detections(path)
    assert str(e.value) == (
        f"{path}:4: field 'confidence' must be a number, got ''")
