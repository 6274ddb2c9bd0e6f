"""Background-subtraction detectors and external-detection ingestion.

Top view: median background, intermodes threshold, hole filling,
Zhang-Suen thinning, and a 5x5 keypoint kernel whose responses classify
skeleton endpoints and junctions; keypoints are weighted by local blob
shape and the head is taken at the wide end of the body. Front view:
entropy threshold and connected-component blobs with a centroid plus two
edge proxy points per blob. External (box-style) detections are ingested
by confidence and reduced to box centers.

The detectors take frames on the detection grid, `frame[::downsample,
::downsample]`, and give every output in full-resolution pixels.
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


@dataclass(eq=False)
class DetectionTable:
    """One view's detections as columns, a row per detection: `frame`
    (n,) int64, and in pixels `head` (n, 2), `cands` (n, 3, 2), `cov`
    (n, 2, 2), `bbox` (n, 4) and `confidence` (n,). NaN is a blank, in
    the optional columns only: `cands` holds a row's head candidates
    first and NaN pairs after them, and `cov`, `bbox` and `confidence`
    are NaN where a detection has none. Rows are sorted by frame, in
    producer or file order within a frame."""

    frame: np.ndarray
    head: np.ndarray
    cands: np.ndarray
    cov: np.ndarray
    bbox: np.ndarray
    confidence: np.ndarray

    @classmethod
    def of(cls, head, frame=0, cands=None, cov=None, bbox=None,
           confidence=None) -> DetectionTable:
        """The rows `head`, with each other column broadcast to them: the
        head alone as `cands` unless they are given (up to 3 a row), and
        the rest blank unless given."""
        head = np.array(head, dtype=float).reshape(-1, 2)
        n = len(head)

        def column(values, *shape):
            out = np.full((n, *shape), np.nan)
            if values is not None and n:  # into the leading slots
                out[(slice(None), *map(slice, np.shape(values)[1:]))] = values
            return out

        return cls(np.array(np.broadcast_to(frame, n), dtype=np.int64), head,
                   column(head[:, None] if cands is None else cands, 3, 2),
                   column(cov, 2, 2), column(bbox, 4), column(confidence))

    @classmethod
    def concat(cls, tables) -> DetectionTable:
        """The rows of `tables` in order."""
        return cls(*map(np.concatenate, zip(*(
            vars(t).values() for t in (cls.of(()), *tables)))))

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, rows) -> DetectionTable:
        """The rows `rows` (a slice, index array or mask) of every column."""
        return DetectionTable(*(c[rows] for c in vars(self).values()))


def runs(key: np.ndarray):
    """(value, start, stop) of each run of equal values in `key`, such as
    each frame's rows of a table."""
    cut = np.flatnonzero(key[1:] != key[:-1]) + 1
    starts = np.r_[0, cut] if len(key) else cut
    return zip(key[starts].tolist(), starts.tolist(),
               [*cut.tolist(), len(key)])


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


_BG_ROWS = 32  # rows per chunk of the background's bit passes


def estimate_background(stack: np.ndarray) -> np.ndarray:
    """Per-pixel median of an (n, h, w) uint8 stack (lower median when n
    is even), as uint8; the stack is left as it is.

    The detectors take the background on their grid, `frame[::downsample,
    ::downsample]`. The median is selected from the high bit down: a bit
    stays set when at most k = (n-1)//2 frames lie below the value so far.
    Each chunk of `_BG_ROWS` rows runs all eight bit passes before the
    next, so a pass reads from cache.
    """
    if not (isinstance(stack, np.ndarray) and stack.ndim == 3
            and stack.dtype == np.uint8):
        raise DetectError("estimate_background takes an (n, h, w) uint8 "
                          "array")
    n = len(stack)
    if n == 0:
        raise DetectError("estimate_background needs at least one frame")
    k = (n - 1) // 2
    count = np.min_scalar_type(n)
    med = np.zeros(stack.shape[1:], dtype=np.uint8)
    for r0 in range(0, med.shape[0], _BG_ROWS):
        chunk, part = stack[:, r0:r0 + _BG_ROWS], med[r0:r0 + _BG_ROWS]
        for bit in (128, 64, 32, 16, 8, 4, 2, 1):
            cand = part | bit
            below = (chunk < cand).sum(axis=0, dtype=count)
            np.copyto(part, cand, where=below <= k)
    return med


def _median_diff(grid: np.ndarray, bg: np.ndarray):
    """(median, table) of two uint8 images: the 5x5 median of |grid - bg|,
    exactly as by `ndimage.median_filter(img, size=5, mode="nearest")`,
    and the 256-entry min-max normalization of the difference to [0,255].
    A zero-range difference gets an all-zero table. The table reads 0
    outside the difference's range [lo, hi], where no median lies."""
    grid = np.asarray(grid)
    bg = np.asarray(bg)
    if grid.shape != bg.shape:
        raise DetectError("frame and background dimensions differ")
    if grid.dtype != np.uint8 or bg.dtype != np.uint8:
        raise DetectError(f"frame and background must be uint8, got "
                          f"{grid.dtype} and {bg.dtype}")
    diff = np.maximum(grid, bg) - np.minimum(grid, bg)
    lo, hi = int(diff.min()), int(diff.max())
    table = np.zeros(256, dtype=np.uint8)
    if hi > lo:
        v = np.arange(lo, hi + 1)
        table[lo:hi + 1] = np.rint((v - lo) * (255.0 / (hi - lo)))
    return _median_5x5(diff), table


def preprocess(frame: np.ndarray, bg: np.ndarray) -> np.ndarray:
    """The normalized difference image `table[median]` of `_median_diff`.
    The normalization is non-decreasing, so taking the median first gives
    the same bytes as normalizing first. The detectors never form this
    image: `_foreground` thresholds the median itself."""
    med, table = _median_diff(frame, bg)
    return np.take(table, med)


def _histogram(img: np.ndarray) -> np.ndarray:
    """Counts of the 256 values of a uint8 image, read in uint16 pairs."""
    flat = np.ravel(img)
    even = flat.size & ~1
    pairs = np.bincount(flat[:even].view(np.uint16),
                        minlength=1 << 16).reshape(256, 256)
    hist = pairs.sum(axis=0) + pairs.sum(axis=1)
    if flat.size & 1:
        hist[flat[-1]] += 1
    return hist


def _foreground(grid: np.ndarray, bg: np.ndarray, threshold):
    """The mask `preprocess(grid, bg) > t`, t = threshold(the histogram of
    that image), or None when the threshold fails; the normalized image is
    never formed.

    Every median lies in [lo, hi], where the table is non-decreasing. So
    the normalized histogram is the median's, summed through the table,
    and table[med] > t holds exactly when med reaches u, the first value
    whose entry passes t in the table made non-decreasing past hi.
    """
    med, table = _median_diff(grid, bg)
    hist = np.bincount(table, weights=_histogram(med), minlength=256)
    try:
        t = threshold(hist.astype(np.int64))
    except DetectError:
        return None
    u = np.searchsorted(np.maximum.accumulate(table), t, side="right")
    return med >= int(u)


def _modes(hist: np.ndarray) -> list[float]:
    """Local maxima positions; a plateau of equal bins is one mode at its
    midpoint, and the array is treated as -inf padded at both ends."""
    n = len(hist)
    step = np.flatnonzero(hist[1:] != hist[:-1]) + 1
    first = np.concatenate(([0], step))[:n]  # each plateau's bins
    last = np.concatenate((step - 1, [n - 1]))[:n]
    level = hist[first]
    rises = np.concatenate(([True], level[:-1] < level[1:]))
    falls = np.concatenate((level[1:] < level[:-1], [True]))
    keep = rises & falls & (level > 0)
    return ((first[keep] + last[keep]) / 2.0).tolist()


_INTERMODES_MAX_ITER = 10000  # smoothing passes before giving up


def intermodes_threshold(hist) -> int:
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
        if iters > _INTERMODES_MAX_ITER:
            raise DetectError(f"histogram did not become bimodal within "
                              f"{_INTERMODES_MAX_ITER} iterations")
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


_KERNEL = np.array([[1, 1, 1, 1, 1],
                    [1, 15, 15, 15, 1],
                    [1, 15, 100, 15, 1],
                    [1, 15, 15, 15, 1],
                    [1, 1, 1, 1, 1]], dtype=np.uint8)
# kernel response -> 1 for an endpoint, 2 for a junction, 0 for neither
_KIND = np.zeros(256, dtype=np.uint8)
_KIND[list(ENDPOINT_VALUES)] = 1
_KIND[list(JUNCTION_VALUES)] = 2


def kernel_response(skel: np.ndarray, at=None) -> np.ndarray:
    """5x5 kernel response of the 0/1 skeleton, as uint8: at the pixels
    `at` = (ys, xs) as a 1-D array, or at every pixel as an image.

    The kernel (centre 100, 8 neighbours 15, outer ring 1) tells line ends
    from junctions. Its 25 products are summed exactly over the
    zero-padded skeleton: at most 236, so uint8 holds the sum.
    """
    s = np.pad(np.asarray(skel) > 0, 2).astype(np.uint8)
    h, w = s.shape[0] - 4, s.shape[1] - 4
    ys, xs = np.indices((h, w)).reshape(2, -1) if at is None else at
    window = (np.arange(5)[:, None] * (w + 4) + np.arange(5)).ravel()
    resp = s.ravel()[(ys * (w + 4) + xs)[:, None] + window] @ _KERNEL.ravel()
    return resp.reshape(h, w) if at is None else resp


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
    weight are discarded. The kernel response is taken at the skeleton's
    pixels, on its bounding box: it is zero-padded, and nothing outside
    is on.
    """
    blob = np.asarray(blob) > 0
    on = np.asarray(skel) > 0
    box = _bbox(on)
    ys, xs = np.nonzero(on[box])
    kind = _KIND[kernel_response(on[box], (ys, xs))]
    keep = kind > 0
    found = []
    for y, x, junction in zip((ys[keep] + box[0].start).tolist(),
                              (xs[keep] + box[1].start).tolist(),
                              (kind[keep] == 2).tolist()):
        w = _window_weight(blob, x, y)
        if junction:
            found.append(Keypoint((x, y), w / params.junction_divisor, "junction"))
        else:
            found.append(Keypoint((x, y), w, "endpoint"))
    found.sort(key=lambda k: (-k.weight, k.point[1], k.point[0]))
    return [k for k in _suppress(found, params.nms_thresh / 100.0)
            if k.weight >= params.min_keypoint_weight]


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill interior holes of 8-connected foreground components.

    A one-pixel background frame joins every 4-connected background
    region that reaches the edge into one component; all else is kept.
    """
    labels, _ = ndimage.label(np.pad(np.asarray(mask) <= 0, 1,
                                     constant_values=True), structure=_CROSS)
    return labels[1:-1, 1:-1] != labels[0, 0]


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


def detect_top(grid: np.ndarray, bg: np.ndarray,
               params: DetectParams = DetectParams()) -> DetectionTable:
    """Skeleton-keypoint head detector for the top view, giving one
    frame's rows (frame 0). `grid` is the frame on the detection grid,
    `frame[::downsample, ::downsample]`, and `bg` the background on the
    same grid."""
    fg = _foreground(grid, bg, intermodes_threshold)
    if fg is None:
        return DetectionTable.of(())
    # On the foreground's bounding box: all outside it is background joined
    # to the image edge, so a hole reaches the box's edge iff the image's.
    box = _bbox(fg)
    mask = np.zeros(fg.shape, dtype=bool)
    mask[box] = fill_holes(fg[box])
    skel = np.zeros(fg.shape, dtype=np.uint8)
    skel[box] = skeletonize(mask[box])
    keypoints = skeleton_keypoints(skel, mask, params)
    labels, _ = ndimage.label(skel[box] > 0, structure=_BOX8)
    by_comp: dict[int, list[Keypoint]] = {}
    for kp in keypoints:
        comp = int(labels[kp.point[1] - box[0].start, kp.point[0] - box[1].start])
        by_comp.setdefault(comp, []).append(kp)
    heads = [kp.point for comp in sorted(by_comp)
             for kp in _select_head_keypoints(by_comp[comp])]
    return DetectionTable.of(np.multiply(heads, params.downsample))


def detect_front(grid: np.ndarray, bg: np.ndarray,
                 params: DetectParams = DetectParams()) -> DetectionTable:
    """Entropy-threshold blob detector for the front view, on the grid and
    for one frame as `detect_top`.

    Emits up to 2*n_fish blobs (largest first, minimum area applied), each
    with centroid, pixel covariance, and two edge proxy points. A stable
    sort of the foreground pixels by label puts each blob's pixels
    together, in raster order.
    """
    mask = _foreground(grid, bg, entropy_threshold)
    if mask is None:
        return DetectionTable.of(())
    labels, n = ndimage.label(mask, structure=_BOX8)
    pixels = np.flatnonzero(mask)
    label_of = labels.ravel()[pixels]
    counts = np.bincount(label_of)  # areas; counts[0] is 0
    ends = np.cumsum(counts)
    pixels = pixels[np.argsort(label_of, kind="stable")]
    order = sorted(range(1, n + 1), key=lambda lbl: (-counts[lbl], lbl))
    f = params.downsample
    heads, cands, covs, boxes = [], [], [], []
    for lbl in order:
        area = int(counts[lbl])
        if area < params.min_blob_area:
            continue
        if len(heads) >= 2 * params.n_fish:
            break
        ys, xs = np.divmod(pixels[ends[lbl - 1]:ends[lbl]], mask.shape[1])
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
        heads.append((mean_x * f, mean_y * f))
        cands.append((heads[-1], *((x * f, y * f) for x, y in proxies)))
        covs.append(cov * (f * f))
        boxes.append((min_x * f, min_y * f, w_px * f, h_px * f))
    return DetectionTable.of(heads, cands=cands, cov=covs, bbox=boxes)


def ingest_external_detections(path, min_confidence: float = 95.0,
                               ) -> dict[str, DetectionTable]:
    """Read a detection CSV, keep rows with confidence >= min_confidence,
    and reduce each box to its center point. Every row needs its box and
    its confidence: a blank one is a FormatError at its line, the earliest
    bad line of the file being the one reported. Returns view -> table, in
    file order within a frame: the shape every detection producer
    returns."""
    from .formats import _EXTERNAL_DETECTIONS, _read_detections

    out = _read_detections(path, _EXTERNAL_DETECTIONS)
    for view, table in out.items():
        table = out[view] = table[table.confidence >= min_confidence]
        table.head = table.bbox[:, :2] + table.bbox[:, 2:] / 2.0
        table.cands = DetectionTable.of(table.head).cands
    return out
