"""Background-subtraction detectors and external-detection ingestion.

Top view: median background, intermodes threshold, hole filling,
Zhang-Suen thinning, and a 5x5 keypoint kernel whose responses classify
skeleton endpoints and junctions; keypoints are weighted by local blob
shape and the head is taken at the wide end of the body. Front view:
entropy threshold and connected-component blobs with a centroid plus two
edge proxy points per blob. External (box-style) detections are ingested
by confidence and reduced to box centers.

All detector outputs are in full-resolution pixel coordinates; the
internal 2x decimation never leaks downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import ndimage

ENDPOINT_VALUES = frozenset({116, 117, 118, 131})
JUNCTION_VALUES = frozenset({148, 149, 150, 151})

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)
_BOX8 = np.ones((3, 3), dtype=int)


class DetectError(ValueError):
    """Raised for invalid detector inputs or an unreachable threshold."""


@dataclass
class Detection:
    """One 2D observation: a head point plus optional blob statistics."""

    frame: int
    view: str
    head: tuple[float, float]
    candidates: tuple[tuple[float, float], ...]
    centroid: tuple[float, float] | None = None
    cov: np.ndarray | None = None
    bbox: tuple[float, float, float, float] | None = None
    confidence: float | None = None


@dataclass(frozen=True)
class DetectParams:
    n_bg: int = 80
    downsample: int = 2
    nms_thresh: float = 50.0  # percent box overlap
    junction_divisor: float = 2.5
    min_keypoint_weight: float = 1.0
    min_blob_area: int = 20
    n_fish: int = 1

    def __post_init__(self):
        for name in ("n_bg", "downsample", "nms_thresh", "junction_divisor",
                     "min_keypoint_weight", "min_blob_area", "n_fish"):
            if getattr(self, name) <= 0:
                raise ValueError(f"DetectParams.{name} must be positive")


def _batcher_pairs(n: int):
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort on n
    wires, n a power of two (Knuth, TAOCP vol. 3, 5.3.4)."""
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        yield i + j, i + j + k
            k //= 2
        p *= 2


def _sort_pairs(wires) -> list[tuple[int, int]]:
    """Batcher's sort of `wires`, padded to a power of two by wires at the
    top value, which every comparator (i < j) leaves where they are."""
    width = 1 << (len(wires) - 1).bit_length()
    return [(wires[a], wires[b]) for a, b in _batcher_pairs(width)
            if b < len(wires)]


def _median_network():
    """Selection network for the median of a 5x5 window whose columns are
    sorted, wire 5*i + j holding rank i of column j.

    Sorting the rows keeps the columns sorted, so (i, j) then has at least
    (i+1)(j+1) - 1 wires below it and (5-i)(5-j) - 1 above: the median is
    the median of the 13 wires left. The row sorts and a sort of those 13
    are pruned forwards (drop a comparator that swaps on none of the 6**5
    0-1 inputs with sorted columns) and backwards (keep a comparator only
    if it reaches the median, computing only the outputs read later).
    Returns (comparators, output), a comparator being (lo, hi, keep_min,
    keep_max); by the 0-1 principle it selects the median of any input.
    """
    cand = [5 * i + j for i in range(5) for j in range(5)
            if (i + 1) * (j + 1) <= 13 and (5 - i) * (5 - j) <= 13]
    net = [c for i in range(0, 25, 5) for c in _sort_pairs(range(i, i + 5))]
    net += _sort_pairs(cand)
    ones = np.indices((6,) * 5).reshape(5, -1)  # count of 1s per column
    x = (np.arange(5)[:, None, None] >= 5 - ones).reshape(25, -1)
    forward = []
    for a, b in net:
        if (x[a] > x[b]).any():
            forward.append((a, b))
            x[a], x[b] = x[a] & x[b], x[a] | x[b]
    out = cand[len(cand) // 2]
    need = {out}
    pruned = []
    for lo, hi in reversed(forward):
        if lo in need or hi in need:
            pruned.append((lo, hi, lo in need, hi in need))
            need |= {lo, hi}
    return pruned[::-1], out


_COLUMN_SORT = _sort_pairs(range(5))
_MEDIAN_NET, _MEDIAN_OUT = _median_network()
_STRIP_ROWS = 128  # rows per pass of the median: its arrays stay in cache


def _median_5x5(img: np.ndarray) -> np.ndarray:
    """5x5 median with edge-replicated borders, bit-identical to
    `ndimage.median_filter(img, size=5, mode="nearest")`.

    In a flattened strip of the padded image, the column at flat index q
    is pixel q and the four below it, sorted once for the five windows
    q-4..q that read it. A window in a row's last four flat positions
    wraps into the next row and is dropped.
    """
    h, w = img.shape
    width = w + 4
    flat = np.pad(img, 2, mode="edge").ravel()
    out = np.empty(h * width, dtype=img.dtype)
    for r0 in range(0, h, _STRIP_ROWS):
        n = (min(h, r0 + _STRIP_ROWS) - r0) * width
        col = [flat[(r0 + k) * width:(r0 + k) * width + n] for k in range(5)]
        for a, b in _COLUMN_SORT:
            col[a], col[b] = np.minimum(col[a], col[b]), np.maximum(col[a], col[b])
        s = [c[j:n - 4 + j] for c in col for j in range(5)]
        for lo, hi, keep_min, keep_max in _MEDIAN_NET:
            a, b = s[lo], s[hi]
            if keep_min:
                s[lo] = np.minimum(a, b)
            if keep_max:
                s[hi] = np.maximum(a, b)
        out[r0 * width:r0 * width + n - 4] = s[_MEDIAN_OUT]
    return out.reshape(h, width)[:, :w]


def estimate_background(frames) -> np.ndarray:
    """Per-pixel median of the frames (lower median when even), as uint8.

    `frames` is any iterable of equally sized images, such as a generator
    that reads them one at a time; the detectors take it on their grid,
    `frame[::downsample, ::downsample]`. Each frame is copied into one
    uint8 stack, which grows by doubling. The median is selected from the
    high bit down: a bit stays set when at most k = (n-1)//2 frames lie
    below the value so far.
    """
    stack = np.empty((0, 0, 0), dtype=np.uint8)
    n = 0
    for frame in frames:
        frame = np.asarray(frame)
        if n == 0:
            stack = np.empty((1,) + frame.shape, dtype=np.uint8)
        elif frame.shape != stack.shape[1:]:
            raise DetectError("background frames must share dimensions")
        if n == len(stack):
            grown = np.empty((2 * n,) + frame.shape, dtype=np.uint8)
            grown[:n] = stack
            stack = grown
        stack[n] = frame
        n += 1
    if n == 0:
        raise DetectError("estimate_background needs at least one frame")
    k = (n - 1) // 2
    stack = stack[:n]
    med = np.zeros(stack.shape[1:], dtype=np.uint8)
    for bit in (128, 64, 32, 16, 8, 4, 2, 1):
        cand = med | bit
        below = (stack < cand).sum(axis=0, dtype=np.min_scalar_type(n))
        np.copyto(med, cand, where=below <= k)
    return med


def preprocess(frame: np.ndarray, bg: np.ndarray) -> np.ndarray:
    """|frame - bg| of two uint8 images, 5x5 median filtered (exactly, as
    by `ndimage.median_filter(img, size=5, mode="nearest")`), then min-max
    normalized to [0,255] by a 256-entry table; a zero-range difference
    normalizes to all zeros. The normalization is non-decreasing, so taking
    the median first gives the same bytes."""
    frame = np.asarray(frame)
    bg = np.asarray(bg)
    if frame.shape != bg.shape:
        raise DetectError("frame and background dimensions differ")
    if frame.dtype != np.uint8 or bg.dtype != np.uint8:
        raise DetectError(f"frame and background must be uint8, got "
                          f"{frame.dtype} and {bg.dtype}")
    diff = np.maximum(frame, bg) - np.minimum(frame, bg)
    lo, hi = int(diff.min()), int(diff.max())
    lut = np.zeros(256, dtype=np.uint8)
    if hi > lo:
        v = np.arange(lo, hi + 1)
        lut[lo:hi + 1] = np.rint((v - lo) * (255.0 / (hi - lo)))
    return np.take(lut, _median_5x5(diff))


def _modes(hist: np.ndarray) -> list[float]:
    """Local maxima positions; a plateau of equal bins is one mode at its
    midpoint, and the array is treated as -inf padded at both ends."""
    modes = []
    n = len(hist)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and hist[j + 1] == hist[i]:
            j += 1
        left_ok = i == 0 or hist[i - 1] < hist[i]
        right_ok = j == n - 1 or hist[j + 1] < hist[j]
        if left_ok and right_ok and hist[i] > 0:
            modes.append((i + j) / 2.0)
        i = j + 1
    return modes


def intermodes_threshold(hist, max_iter: int = 10000) -> int:
    """Iteratively mean-smooth the histogram until exactly two modes remain;
    the threshold is the floor of the mode midpoint."""
    hist = np.asarray(hist, dtype=np.float64)
    if hist.size == 0 or hist.sum() <= 0:
        raise DetectError("intermodes_threshold needs a non-empty histogram")
    nz = np.nonzero(hist)[0]
    minbin, maxbin = int(nz[0]), int(nz[-1])
    if minbin == maxbin:
        raise DetectError("single-bin histogram can never become bimodal")
    work = hist[minbin:maxbin + 1].copy()
    iters = 0
    while len(_modes(work)) != 2:
        work = np.convolve(work, np.array([1.0, 1.0, 1.0]), mode="same") / 3.0
        iters += 1
        if iters > max_iter:
            raise DetectError(
                f"histogram did not become bimodal within {max_iter} iterations")
    m1, m2 = _modes(work)
    return int(np.floor((m1 + m2) / 2.0)) + minbin


def entropy_threshold(hist) -> int:
    """Split maximizing the summed background and foreground entropies.

    Bins where the cumulative mass is 0 or 1 are excluded; ties resolve
    to the smallest bin index.
    """
    counts = np.asarray(hist, dtype=np.int64)
    if np.count_nonzero(counts) < 2:
        raise DetectError("entropy_threshold needs at least two non-zero bins")
    total = counts.sum()
    h = counts / total
    ccum = np.cumsum(counts)
    hc = ccum / total
    with np.errstate(divide="ignore", invalid="ignore"):
        hlogh = np.where(h > 0, h * np.log(h), 0.0)
    s1 = np.cumsum(hlogh)
    s_total = s1[-1]
    valid = (ccum > 0) & (ccum < total)
    k = np.nonzero(valid)[0]
    b = np.log(hc[k]) - s1[k] / hc[k]
    w = np.log(1.0 - hc[k]) - (s_total - s1[k]) / (1.0 - hc[k])
    e = b + w
    return int(k[np.argmax(e)])


def _zhang_suen_tables() -> tuple[np.ndarray, np.ndarray]:
    """Removal rules of the two Zhang-Suen subiterations (Zhang & Suen,
    1984), indexed by the neighbour code: bit i-2 holds p_i, from p2 =
    north clockwise to p9 = north-west."""
    p = np.arange(256)[:, None] >> np.arange(8) & 1
    a = (p < np.roll(p, -1, axis=1)).sum(axis=1)  # 0 -> 1 steps round the ring
    b = p.sum(axis=1)
    p2, _, p4, _, p6, _, p8, _ = p.T
    both = (a == 1) & (b >= 2) & (b <= 6)
    return (both & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0),
            both & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0))


_ZHANG_SUEN = _zhang_suen_tables()


def skeletonize(binary: np.ndarray) -> np.ndarray:
    """Zhang-Suen two-subiteration thinning to convergence (0/255 output).

    Each subiteration looks up the neighbour code of the pixels still on
    and clears those its rule removes, all at once.
    """
    img = np.pad(np.asarray(binary) > 0, 1).astype(np.uint8)
    w = img.shape[1]
    flat = img.ravel()
    # p2..p9 as offsets into the flattened, zero-padded image
    ring = np.array([-w, 1 - w, 1, w + 1, w, w - 1, -1, -w - 1])
    on = np.flatnonzero(flat)
    changed = True
    while changed:
        changed = False
        for table in _ZHANG_SUEN:
            code = flat[on[:, None] + ring] @ (1 << np.arange(8))
            remove = table[code]
            if remove.any():
                flat[on[remove]] = 0
                on = on[~remove]
                changed = True
    return img[1:-1, 1:-1] * np.uint8(255)


@dataclass(frozen=True)
class Keypoint:
    point: tuple[int, int]  # (x, y) px
    weight: float
    kind: str  # "endpoint" | "junction"


def kernel_response(skel: np.ndarray) -> np.ndarray:
    """5x5 kernel response of the 0/1 skeleton at every pixel, as uint8.

    The kernel (centre 100, 8 neighbours 15, outer ring 1) tells line ends
    from junctions. It is the 5x5 box plus 14 times the 3x3 box plus 85 at
    the centre, summed exactly over the zero-padded skeleton: at most 236.
    """
    s = np.pad(np.asarray(skel) > 0, 2).astype(np.uint8)
    h, w = s.shape[0] - 4, s.shape[1] - 4
    rows3 = s[:, 1:w + 1] + s[:, 2:w + 2] + s[:, 3:w + 3]
    rows5 = rows3 + s[:, :w] + s[:, 4:]
    box3 = rows3[1:h + 1] + rows3[2:h + 2] + rows3[3:h + 3]
    box5 = sum(rows5[i:i + h] for i in range(5))
    return box5 + 14 * box3 + 85 * s[2:-2, 2:-2]


def _window_weight(blob: np.ndarray, x: int, y: int) -> float:
    """Smallest eigenvalue of the blob-pixel coordinate covariance in the
    20x20 window centered on (x, y), computed in the steps of
    `np.cov(..., bias=True)`."""
    h, w = blob.shape
    r0, r1 = max(0, y - 10), min(h, y + 10)
    c0, c1 = max(0, x - 10), min(w, x + 10)
    ys, xs = np.nonzero(blob[r0:r1, c0:c1])
    if len(xs) < 2:
        return 0.0
    pts = np.array([xs, ys], dtype=np.float64)
    pts -= pts.mean(axis=1)[:, None]
    cov = np.dot(pts, pts.T) * (1.0 / len(xs))
    return float(np.linalg.eigvalsh(cov)[0])


def _bbox(mask: np.ndarray) -> tuple[slice, slice]:
    """Slices of the mask's bounding box; empty slices for an empty mask."""
    return tuple(slice(r[0], r[-1] + 1) if r.size else slice(0, 0)
                 for r in (np.flatnonzero(mask.any(axis=a)) for a in (1, 0)))


def _suppress(found: list[Keypoint], thresh: float) -> list[Keypoint]:
    """Greedy non-max suppression in list order: a keypoint stays unless
    its w-by-w box overlaps a kept one's by `thresh` or more, as a fraction
    of the smaller box. A box of weight <= 0 overlaps nothing."""
    x, y, w = np.array([(*k.point, k.weight) for k in found],
                       dtype=np.float64).reshape(-1, 3).T
    half = w / 2.0
    iw = np.minimum.outer(x + half, x + half) - np.maximum.outer(x - half, x - half)
    ih = np.minimum.outer(y + half, y + half) - np.maximum.outer(y - half, y - half)
    sq = np.array([k.weight ** 2 for k in found])
    overlap = np.divide(iw * ih, np.minimum.outer(sq, sq), out=np.zeros_like(iw),
                        where=(iw > 0) & (ih > 0) & np.logical_and.outer(w > 0, w > 0))
    kept: list[int] = []
    for i in range(len(found)):
        if (overlap[i, kept] < thresh).all():
            kept.append(i)
    return [found[i] for i in kept]


def skeleton_keypoints(skel: np.ndarray, blob: np.ndarray,
                       params: DetectParams = DetectParams()) -> list[Keypoint]:
    """Classify skeleton endpoints/junctions and weight them by blob shape.

    Junction weights are divided by params.junction_divisor; keypoints are
    non-max suppressed over their w-by-w boxes and those below the minimum
    weight are discarded. The kernel response is taken on the skeleton's
    bounding box only: it is zero-padded, and nothing outside is on.
    """
    blob = np.asarray(blob) > 0
    on = np.asarray(skel) > 0
    box = _bbox(on)
    resp = kernel_response(on[box])
    ys, xs = np.nonzero(
        np.isin(resp, list(ENDPOINT_VALUES | JUNCTION_VALUES)) & on[box])
    found = []
    for y, x, value in zip((ys + box[0].start).tolist(),
                           (xs + box[1].start).tolist(), resp[ys, xs].tolist()):
        w = _window_weight(blob, x, y)
        if value in JUNCTION_VALUES:
            found.append(Keypoint((x, y), w / params.junction_divisor, "junction"))
        else:
            found.append(Keypoint((x, y), w, "endpoint"))
    found.sort(key=lambda k: (-k.weight, k.point[1], k.point[0]))
    return [k for k in _suppress(found, params.nms_thresh / 100.0)
            if k.weight >= params.min_keypoint_weight]


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill interior holes of 8-connected foreground components."""
    mask = np.asarray(mask) > 0
    inv = ~mask
    labels, n = ndimage.label(inv, structure=_CROSS)
    if n == 0:
        return mask
    border = np.zeros(n + 1, dtype=bool)
    for edge in (labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]):
        border[np.unique(edge)] = True
    border[0] = True
    return mask | ~border[labels]


def _select_head_keypoints(kps: list[Keypoint]) -> list[Keypoint]:
    """Per-skeleton selection: of the two keypoints farthest apart keep the
    heavier one, then keep the heavier half of the remainder."""
    if len(kps) <= 1:
        return list(kps)

    def span(pair):  # squared distance; max() keeps the first farthest
        (xa, ya), (xb, yb) = kps[pair[0]].point, kps[pair[1]].point
        return (xa - xb) ** 2 + (ya - yb) ** 2

    a, b = max(combinations(range(len(kps)), 2), key=span)
    winner = kps[a] if kps[a].weight >= kps[b].weight else kps[b]
    rest = [k for idx, k in enumerate(kps) if idx not in (a, b)]
    rest.sort(key=lambda k: (-k.weight, k.point[1], k.point[0]))
    return [winner] + rest[:len(rest) // 2]


def detect_top(frame: np.ndarray, bg: np.ndarray,
               params: DetectParams = DetectParams(),
               frame_index: int = 0) -> list[Detection]:
    """Skeleton-keypoint head detector for the top view; `bg` is the
    background on the detection grid, `frame[::downsample, ::downsample]`."""
    f = params.downsample
    pre = preprocess(np.asarray(frame)[::f, ::f], bg)
    hist = np.bincount(pre.ravel(), minlength=256)
    try:
        t = intermodes_threshold(hist)
    except DetectError:
        return []
    # On the foreground's bounding box: all outside it is background joined
    # to the image edge, so a hole reaches the box's edge iff the image's.
    fg = pre > t
    box = _bbox(fg)
    mask = np.zeros(fg.shape, dtype=bool)
    mask[box] = fill_holes(fg[box])
    skel = np.zeros(fg.shape, dtype=np.uint8)
    skel[box] = skeletonize(mask[box])
    keypoints = skeleton_keypoints(skel, mask, params)
    if not keypoints:
        return []
    labels, _ = ndimage.label(skel[box] > 0, structure=_BOX8)
    by_comp: dict[int, list[Keypoint]] = {}
    for kp in keypoints:
        comp = int(labels[kp.point[1] - box[0].start, kp.point[0] - box[1].start])
        by_comp.setdefault(comp, []).append(kp)
    out = []
    for comp in sorted(by_comp):
        for kp in _select_head_keypoints(by_comp[comp]):
            head = (float(kp.point[0] * f), float(kp.point[1] * f))
            out.append(Detection(frame=frame_index, view="top", head=head,
                                 candidates=(head,)))
    return out


def detect_front(frame: np.ndarray, bg: np.ndarray,
                 params: DetectParams = DetectParams(),
                 frame_index: int = 0) -> list[Detection]:
    """Entropy-threshold blob detector for the front view.

    Emits up to 2*n_fish blobs (largest first, minimum area applied), each
    with centroid, pixel covariance, and two edge proxy points. `bg` is the
    background on the detection grid, as for `detect_top`.
    """
    f = params.downsample
    pre = preprocess(np.asarray(frame)[::f, ::f], bg)
    hist = np.bincount(pre.ravel(), minlength=256)
    try:
        t = entropy_threshold(hist)
    except DetectError:
        return []
    mask = pre > t
    labels, n = ndimage.label(mask, structure=_BOX8)
    if n == 0:
        return []
    counts = np.bincount(labels[mask])  # areas; counts[0] is not read
    order = sorted(range(1, n + 1), key=lambda lbl: (-counts[lbl], lbl))
    slices = ndimage.find_objects(labels)
    out = []
    for lbl in order:
        area = int(counts[lbl])
        if area < params.min_blob_area:
            continue
        if len(out) >= 2 * params.n_fish:
            break
        sl = slices[lbl - 1]
        ys, xs = np.nonzero(labels[sl] == lbl)
        ys = ys + sl[0].start
        xs = xs + sl[1].start
        mean_x = float(xs.mean())
        mean_y = float(ys.mean())
        min_x, max_x = float(xs.min()), float(xs.max())
        min_y, max_y = float(ys.min()), float(ys.max())
        w_px = max_x - min_x + 1.0
        h_px = max_y - min_y + 1.0
        if w_px > h_px:
            proxies = ((min_x, mean_y), (max_x, mean_y))
        else:
            proxies = ((mean_x, min_y), (mean_x, max_y))
        cov = np.cov(np.stack([xs.astype(float), ys.astype(float)]), bias=True)
        centroid = (mean_x * f, mean_y * f)
        out.append(Detection(
            frame=frame_index, view="front", head=centroid,
            candidates=(centroid,
                        (proxies[0][0] * f, proxies[0][1] * f),
                        (proxies[1][0] * f, proxies[1][1] * f)),
            centroid=centroid,
            cov=cov * (f * f),
            bbox=(min_x * f, min_y * f, w_px * f, h_px * f),
        ))
    return out


def ingest_external_detections(path, min_confidence: float = 95.0,
                               ) -> dict[str, dict[int, list[Detection]]]:
    """Read a detection CSV, keep rows with confidence >= min_confidence,
    and reduce each box to its center point. Returns view -> frame ->
    [Detection], in file order within a frame: the shape every detection
    producer returns."""
    from .formats import group_detections, read_detections_csv

    kept = []
    for line_no, det in read_detections_csv(path):
        if det.confidence is None or det.bbox is None:
            raise DetectError(
                f"{path}:{line_no}: external detection rows need bbox and "
                f"confidence fields")
        if det.confidence < min_confidence:
            continue
        bx, by, bw, bh = det.bbox
        head = (bx + bw / 2.0, by + bh / 2.0)
        kept.append((line_no, Detection(
            frame=det.frame, view=det.view, head=head, candidates=(head,),
            bbox=det.bbox, confidence=det.confidence)))
    return group_detections(kept)
