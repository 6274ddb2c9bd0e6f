"""Independent reference code that the tests compare the library against.

The scalar geometry below does one point or one pixel pair at a time, in
the plain textbook form. The library only has the batched forms
(`project_batch`, `triangulate_batch`); the gates check them against
these. `graph_from_weights` builds an association graph from bare
weights, for tests of path extraction on hand-made or random DAGs;
`tracklet` builds a 2D tracklet from its rows, and `same_table` compares
two detection tables column by column. `columns` turns a {frame: point}
dict into the `frame` and `point` columns of a node, 3D tracklet or
track, and `frame_points` and `frame_sources` turn those columns and a
3D tracklet's source rows back into {frame: ...} dicts.
`skeletonize` and `kernel_response` are the whole-image forms of the
detector's thinning and keypoint response: every pass of the thinning
sums the neighbours of every pixel, and the response is a 5x5
convolution. `preprocess` normalizes the difference image in floats and
then takes `ndimage.median_filter`; `foreground` thresholds that image
at the threshold of its histogram. `estimate_background` runs its bit
passes over the whole stack, and `modes` walks the histogram bin by bin.
`skeleton_keypoints` visits every skeleton pixel, weights it with
`np.cov` and suppresses with one `box_overlap_pct` call per pair;
`fill_holes` collects the background labels on the image's edges;
`detect_top` works on the whole grid, and `detect_front` takes each
blob's pixels from its `ndimage.find_objects` box.
`match_frames` and `id_metrics` score one (ground truth, prediction) pair
at a time with `np.linalg.norm`. `match_frames` returns a `Record` of
dicts keyed by frame and fish id; `record` turns the library's match
table into one. `clear_mot`, `mt_ml`, `mtbf` and
`time_between_occlusions` walk each track frame by frame. `csv_rows`
writes data rows through `csv.writer`. `switch_path` is the stitcher's
cheapest-walk search that keeps every layer's parent pointers and walks
them back to find the switch edges.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.optimize import linear_sum_assignment

from stereomot import (AssociationGraph, DetectionTable, DetectParams,
                       NodeCandidate, Tracklet2D, detect)
from stereomot.geometry import PARALLEL_TOL, CameraModel
from stereomot.metrics import ClearMot, _gt_positions, occlusion_events
from stereomot.track2d import hungarian


class GeometryError(ValueError):
    """A degenerate geometric input: behind the camera, or parallel rays."""


def project(p, cam: CameraModel) -> tuple[float, float]:
    """Project a 3D world point to pixel coordinates.

    Raises GeometryError if the point is on or behind the camera plane.
    """
    p = np.asarray(p, dtype=float)
    xc = cam.rotation @ p + cam.translation
    if xc[2] <= 0:
        raise GeometryError(f"point {tuple(p)} is behind camera {cam.view_id}")
    u = cam.fx * xc[0] / xc[2] + cam.cx
    v = cam.fy * xc[1] / xc[2] + cam.cy
    return (float(u), float(v))


def back_project(pixel, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Return (origin, unit direction) of the world-space ray through a pixel."""
    u, v = float(pixel[0]), float(pixel[1])
    d_cam = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
    d = cam.rotation.T @ d_cam
    d /= np.linalg.norm(d)
    return cam.center, d


def triangulate(p_top, p_front, cam_top: CameraModel, cam_front: CameraModel):
    """Midpoint-of-closest-approach triangulation of one pixel pair.

    Returns (point3d ndarray, reprojection error px). The reprojection
    error is the mean L2 pixel distance between the inputs and the
    re-projected 3D point in both views.
    """
    o1, d1 = back_project(p_top, cam_top)
    o2, d2 = back_project(p_front, cam_front)
    b = float(d1 @ d2)
    denom = 1.0 - b * b  # a = c = 1 for unit directions
    if denom < PARALLEL_TOL:
        raise GeometryError("rays are parallel or nearly parallel")
    w0 = o1 - o2
    d = float(d1 @ w0)
    e = float(d2 @ w0)
    s = (b * e - d) / denom
    t = (e - b * d) / denom
    point = 0.5 * ((o1 + s * d1) + (o2 + t * d2))
    r_top = project(point, cam_top)
    r_front = project(point, cam_front)
    err = 0.5 * (math.hypot(r_top[0] - p_top[0], r_top[1] - p_top[1])
                 + math.hypot(r_front[0] - p_front[0], r_front[1] - p_front[1]))
    return point, float(err)


def tracklet(tid: int, view: str, frames, heads=None, **columns) -> Tracklet2D:
    """A 2D tracklet with a row per frame of `frames`: head (0, 0) unless
    `heads` are given, and the other columns as `DetectionTable.of` takes
    them."""
    if heads is None:
        heads = np.zeros((len(frames), 2))
    return Tracklet2D(id=tid, view=view, detections=DetectionTable.of(
        heads, frame=list(frames), **columns))


def same_table(a: DetectionTable, b: DetectionTable) -> bool:
    """Equal detection tables: every column, NaN equal to NaN."""
    return all(x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
               for x, y in zip(vars(a).values(), vars(b).values()))


def columns(points: dict) -> dict:
    """The `frame` and `point` columns of a {frame: point} dict, as the
    keyword arguments of a node, 3D tracklet or track."""
    frames = sorted(points)
    return {"frame": np.array(frames, dtype=np.int64),
            "point": np.array([points[f] for f in frames],
                              dtype=float).reshape(-1, 3)}


def frame_points(extent) -> dict:
    """{frame: point} of a node's, 3D tracklet's or track's columns."""
    return dict(zip(extent.frame.tolist(), extent.point))


def frame_sources(tracklet3d) -> dict:
    """{frame: (top id, front id)} of a 3D tracklet's source rows, None
    for a blank id."""
    return {f: (top, front) for f, top, front in tracklet3d.sources.tolist()}


def graph_from_weights(node_weights: dict,
                       edge_weights: dict) -> AssociationGraph:
    """A graph whose node `nid` has weight `node_weights[nid]` and 2D
    tracklets of its own, so removing a path removes only its nodes.
    `edge_weights` maps (src, dst) to a weight; it must form a DAG."""
    nodes = {nid: NodeCandidate(top=tracklet(nid, "top", []),
                                front=tracklet(nid, "front", []),
                                **columns({}), weight=float(w))
             for nid, w in node_weights.items()}
    return AssociationGraph(nodes=nodes, edges=dict(edge_weights))


def skeletonize(binary: np.ndarray) -> np.ndarray:
    """Zhang-Suen two-subiteration thinning to convergence (0/255 output)."""
    img = np.asarray(binary) > 0
    img = np.pad(img, 1, constant_values=False)
    # Removal masks for the two subiterations; see Zhang & Suen (1984).
    while True:
        changed = False
        for step in (0, 1):
            c = img[1:-1, 1:-1]
            p2 = img[:-2, 1:-1]
            p3 = img[:-2, 2:]
            p4 = img[1:-1, 2:]
            p5 = img[2:, 2:]
            p6 = img[2:, 1:-1]
            p7 = img[2:, :-2]
            p8 = img[1:-1, :-2]
            p9 = img[:-2, :-2]
            ring = [p2, p3, p4, p5, p6, p7, p8, p9]
            bsum = sum(p.astype(np.int8) for p in ring)
            a = sum((~ring[i] & ring[(i + 1) % 8]).astype(np.int8)
                    for i in range(8))
            if step == 0:
                extra = ~(p2 & p4 & p6) & ~(p4 & p6 & p8)
            else:
                extra = ~(p2 & p4 & p8) & ~(p2 & p6 & p8)
            remove = c & (a == 1) & (bsum >= 2) & (bsum <= 6) & extra
            if remove.any():
                img[1:-1, 1:-1] &= ~remove
                changed = True
        if not changed:
            break
    return img[1:-1, 1:-1].astype(np.uint8) * 255


KEYPOINT_KERNEL = np.array([
    [1, 1, 1, 1, 1],
    [1, 15, 15, 15, 1],
    [1, 15, 100, 15, 1],
    [1, 15, 15, 15, 1],
    [1, 1, 1, 1, 1],
], dtype=np.int64)


def kernel_response(skel: np.ndarray) -> np.ndarray:
    """5x5 kernel response of the 0/1 skeleton at every pixel."""
    skel01 = (np.asarray(skel) > 0).astype(np.int64)
    return ndimage.convolve(skel01, KEYPOINT_KERNEL, mode="constant", cval=0)


def preprocess(frame: np.ndarray, bg: np.ndarray) -> np.ndarray:
    """|frame - bg|, min-max normalized to [0,255], 5x5 median filtered."""
    diff = np.abs(frame.astype(np.int16) - bg.astype(np.int16)).astype(float)
    lo, hi = diff.min(), diff.max()
    norm = np.zeros_like(diff) if hi == lo else (diff - lo) * (255.0 / (hi - lo))
    img = np.rint(norm).astype(np.uint8)
    return ndimage.median_filter(img, size=5, mode="nearest")


def foreground(grid, bg, threshold):
    """`preprocess(grid, bg) > t` for t = threshold(its histogram), or None
    when the threshold fails."""
    pre = preprocess(grid, bg)
    try:
        t = threshold(np.bincount(pre.ravel(), minlength=256))
    except detect.DetectError:
        return None
    return pre > t


def estimate_background(stack: np.ndarray) -> np.ndarray:
    """Lower per-pixel median of an (n, h, w) uint8 stack, each of the
    eight bit passes comparing the whole stack."""
    n = len(stack)
    med = np.zeros(stack.shape[1:], dtype=np.uint8)
    for bit in (128, 64, 32, 16, 8, 4, 2, 1):
        cand = med | bit
        below = (stack < cand).sum(axis=0)
        np.copyto(med, cand, where=below <= (n - 1) // 2)
    return med


def modes(hist) -> list:
    """Local maxima positions; a plateau of equal bins is one mode at its
    midpoint, and the array is treated as -inf padded at both ends."""
    found = []
    n = len(hist)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and hist[j + 1] == hist[i]:
            j += 1
        left_ok = i == 0 or hist[i - 1] < hist[i]
        right_ok = j == n - 1 or hist[j + 1] < hist[j]
        if left_ok and right_ok and hist[i] > 0:
            found.append((i + j) / 2.0)
        i = j + 1
    return found


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill the holes of the mask: 4-connected background components that
    touch no edge of the image, found by labelling and then collecting
    the labels on the four edges."""
    mask = np.asarray(mask) > 0
    labels, n = ndimage.label(~mask, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    if n == 0:
        return mask
    border = np.zeros(n + 1, dtype=bool)
    for edge in (labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]):
        border[np.unique(edge)] = True
    border[0] = True
    return mask | ~border[labels]


def window_weight(blob: np.ndarray, x: int, y: int) -> float:
    h, w = blob.shape
    r0, r1 = max(0, y - 10), min(h, y + 10)
    c0, c1 = max(0, x - 10), min(w, x + 10)
    ys, xs = np.nonzero(blob[r0:r1, c0:c1])
    if len(xs) < 2:
        return 0.0
    cov = np.cov(np.stack([xs.astype(float), ys.astype(float)]), bias=True)
    return float(np.linalg.eigvalsh(cov)[0])


def box_overlap_pct(a: detect.Keypoint, b: detect.Keypoint) -> float:
    """Overlap of the two w-by-w boxes as a fraction of the smaller box."""
    if a.weight <= 0 or b.weight <= 0:
        return 0.0
    ah, bh = a.weight / 2.0, b.weight / 2.0
    iw = min(a.point[0] + ah, b.point[0] + bh) - max(a.point[0] - ah, b.point[0] - bh)
    ih = min(a.point[1] + ah, b.point[1] + bh) - max(a.point[1] - ah, b.point[1] - bh)
    if iw <= 0 or ih <= 0:
        return 0.0
    return (iw * ih) / min(a.weight ** 2, b.weight ** 2)


def suppress(found: list, thresh: float) -> list:
    kept = []
    for cand in found:
        if all(box_overlap_pct(cand, k) < thresh for k in kept):
            kept.append(cand)
    return kept


def skeleton_keypoints(skel: np.ndarray, blob: np.ndarray,
                       params: DetectParams = DetectParams()) -> list:
    blob = np.asarray(blob) > 0
    resp = kernel_response(skel)
    found = []
    for y, x in zip(*np.nonzero(np.asarray(skel) > 0)):
        x, y, value = int(x), int(y), int(resp[y, x])
        if value in detect.ENDPOINT_VALUES:
            kind, w = "endpoint", window_weight(blob, x, y)
        elif value in detect.JUNCTION_VALUES:
            kind = "junction"
            w = window_weight(blob, x, y) / params.junction_divisor
        else:
            continue
        found.append(detect.Keypoint(point=(x, y), weight=w, kind=kind))
    found.sort(key=lambda k: (-k.weight, k.point[1], k.point[0]))
    return [k for k in suppress(found, params.nms_thresh / 100.0)
            if k.weight >= params.min_keypoint_weight]


def detect_top(grid, bg, params: DetectParams = DetectParams()
               ) -> DetectionTable:
    """The top-view detector with every step on the whole grid. It calls
    `detect.preprocess` through the module, so a test that patches
    `detect._median_diff` patches it and the library alike."""
    f = params.downsample
    pre = detect.preprocess(grid, bg)
    try:
        t = detect.intermodes_threshold(np.bincount(pre.ravel(), minlength=256))
    except detect.DetectError:
        return DetectionTable.of(())
    mask = fill_holes(pre > t)
    skel = skeletonize(mask)
    labels, _ = ndimage.label(skel > 0, structure=np.ones((3, 3), dtype=int))
    by_comp: dict = {}
    for kp in skeleton_keypoints(skel, mask, params):
        by_comp.setdefault(int(labels[kp.point[1], kp.point[0]]), []).append(kp)
    heads = []
    for comp in sorted(by_comp):
        for kp in detect._select_head_keypoints(by_comp[comp]):
            heads.append((float(kp.point[0] * f), float(kp.point[1] * f)))
    return DetectionTable.of(heads)


def detect_front(grid, bg, params: DetectParams = DetectParams()
                 ) -> DetectionTable:
    """The front-view detector, taking each blob's pixels from its
    `find_objects` box. It calls `detect.preprocess` through the module."""
    f = params.downsample
    pre = detect.preprocess(grid, bg)
    try:
        t = detect.entropy_threshold(np.bincount(pre.ravel(), minlength=256))
    except detect.DetectError:
        return DetectionTable.of(())
    mask = pre > t
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    counts = np.bincount(labels[mask], minlength=n + 1)
    slices = ndimage.find_objects(labels)
    out = []
    for lbl in sorted(range(1, n + 1), key=lambda lbl: (-counts[lbl], lbl)):
        if counts[lbl] < params.min_blob_area:
            continue
        if len(out) >= 2 * params.n_fish:
            break
        sl = slices[lbl - 1]
        ys, xs = np.nonzero(labels[sl] == lbl)
        ys = ys + sl[0].start
        xs = xs + sl[1].start
        mean_x, mean_y = float(xs.mean()), float(ys.mean())
        min_x, max_x = float(xs.min()), float(xs.max())
        min_y, max_y = float(ys.min()), float(ys.max())
        w_px, h_px = max_x - min_x + 1.0, max_y - min_y + 1.0
        if w_px > h_px:
            proxies = ((min_x, mean_y), (max_x, mean_y))
        else:
            proxies = ((mean_x, min_y), (mean_x, max_y))
        cov = np.cov(np.stack([xs.astype(float), ys.astype(float)]), bias=True)
        centroid = (mean_x * f, mean_y * f)
        out.append((centroid,
                    (centroid,) + tuple((x * f, y * f) for x, y in proxies),
                    cov * (f * f),
                    (min_x * f, min_y * f, w_px * f, h_px * f)))
    if not out:
        return DetectionTable.of(())
    heads, cands, covs, boxes = zip(*out)
    return DetectionTable.of(heads, cands=cands, cov=covs, bbox=boxes)


@dataclass
class Record:
    """Per-frame matching as dicts: the scored frames, and for each frame
    the ground-truth fish ids, the number of predicted points and the
    matches (fish id -> (track id, distance))."""

    frames: list
    gt_present: dict
    n_pred: dict
    matches: dict


def record(seq, fish_ids) -> Record:
    """The library's match table as a Record; column j is fish_ids[j]."""
    frames = seq.frames.tolist()
    return Record(
        frames=frames,
        gt_present={f: [fish_ids[j] for j in np.flatnonzero(row).tolist()]
                    for f, row in zip(frames, seq.present)},
        n_pred=dict(zip(frames, seq.n_pred.tolist())),
        matches={f: {fish_ids[j]: (seq.pids[int(seq.track[k, j])],
                                   float(seq.dist[k, j]))
                     for j in np.flatnonzero(seq.track[k] >= 0).tolist()}
                 for k, f in enumerate(frames)})


def match_frames(pred, gt, dist_thresh, view=None):
    """Greedy-persistent gated matching, one pair at a time: a kept pair's
    distance is np.linalg.norm of the pair, a solver pair's the square root
    of np.sum of its squared differences."""
    pos, present = _gt_positions(gt, view)
    ids = gt.fish_ids
    column = {i: j for j, i in enumerate(ids)}
    frames = sorted(set(np.flatnonzero(present.any(axis=1)).tolist())
                    | {f for track in pred.values() for f in track})
    gt_present = {f: ([ids[j] for j in np.flatnonzero(present[f])]
                      if 0 <= f < gt.n_frames else [])
                  for f in frames}
    pred_present = {
        f: sorted(pid for pid, track in pred.items() if f in track)
        for f in frames}
    matches = {}
    prev = {}
    for f in frames:
        gids, pids = gt_present[f], pred_present[f]
        here = {}
        taken = set()
        for g in gids:
            p = prev.get(g)
            if p is None or p not in pids or p in taken:
                continue
            d = float(np.linalg.norm(pos[f, column[g]] - pred[p][f]))
            if d <= dist_thresh:
                here[g] = (p, d)
                taken.add(p)
        rest_g = [g for g in gids if g not in here]
        rest_p = [p for p in pids if p not in taken]
        if rest_g and rest_p:
            cost = np.empty((len(rest_g), len(rest_p)))
            for a, g in enumerate(rest_g):
                for b, p in enumerate(rest_p):
                    d2 = float(np.sum((pos[f, column[g]] - pred[p][f]) ** 2))
                    cost[a, b] = d2 if d2 <= dist_thresh ** 2 else 1e18
            for a, b in hungarian(cost):
                if cost[a, b] <= dist_thresh ** 2:
                    here[rest_g[a]] = (rest_p[b], math.sqrt(cost[a, b]))
        matches[f] = here
        prev = {g: p for g, (p, _) in here.items()}
    return Record(frames=frames, gt_present=gt_present,
                  n_pred={f: len(p) for f, p in pred_present.items()},
                  matches=matches)


def clear_mot(rec):
    """CLEAR MOT counts, walking the frames and each frame's fish."""
    fp = fn = idsw = frag = n_match = 0
    dists = []
    last_pred = {}  # matched gt id -> its last pred id
    in_gap = {}
    gt_total = 0
    for f in rec.frames:
        here = rec.matches[f]
        gids = rec.gt_present[f]
        gt_total += len(gids)
        fn += len(gids) - len(here)
        fp += rec.n_pred[f] - len(here)
        n_match += len(here)
        for g in gids:
            if g in here:
                p, d = here[g]
                dists.append(d)
                if g in last_pred and last_pred[g] != p:
                    idsw += 1
                if in_gap.get(g):
                    frag += 1
                last_pred[g] = p
                in_gap[g] = False
            elif g in last_pred:
                in_gap[g] = True
    if gt_total == 0:
        raise ValueError("ground truth contains no object presence")
    mota = 100.0 * (1.0 - (fn + fp + idsw) / gt_total)
    motp = float(np.mean(dists)) if dists else 0.0
    precision = 100.0 * n_match / (n_match + fp) if n_match + fp else 0.0
    recall = 100.0 * n_match / gt_total
    return ClearMot(mota=mota, motp=motp, precision=precision, recall=recall,
                    fp=fp, fn=fn, idsw=idsw, frag=frag, gt_total=gt_total,
                    n_matches=n_match)


def id_metrics(pred, gt, dist_thresh, view=None):
    """(IDP, IDR, IDF1), counting each fish's gated frames with each track
    one frame at a time."""
    pos, present = _gt_positions(gt, view)
    pids = sorted(pred)
    binned = np.zeros((gt.n_fish, len(pids)), dtype=int)
    for j in range(gt.n_fish):
        gt_frames = set(np.flatnonzero(present[:, j]).tolist())
        for b, p in enumerate(pids):
            for f in gt_frames & set(pred[p]):
                d = float(np.linalg.norm(pos[f, j] - pred[p][f]))
                if d <= dist_thresh:
                    binned[j, b] += 1
    rows, cols = linear_sum_assignment(binned, maximize=True)
    idtp = int(binned[rows, cols].sum())
    idfn = int(present.sum()) - idtp
    idfp = sum(len(v) for v in pred.values()) - idtp
    idp = 100.0 * idtp / (idtp + idfp) if idtp + idfp else 0.0
    idr = 100.0 * idtp / (idtp + idfn) if idtp + idfn else 0.0
    idf1 = (100.0 * 2 * idtp / (2 * idtp + idfp + idfn)
            if 2 * idtp + idfp + idfn else 0.0)
    return (idp, idr, idf1)


def mt_ml(rec):
    """Counts of mostly-tracked (coverage >= 0.8) and mostly-lost (<= 0.2)
    ground-truth tracks."""
    present, covered = {}, {}
    for f in rec.frames:
        for g in rec.gt_present[f]:
            present[g] = present.get(g, 0) + 1
            if g in rec.matches[f]:
                covered[g] = covered.get(g, 0) + 1
    mt = ml = 0
    for g, n in present.items():
        cov = covered.get(g, 0) / n
        if cov >= 0.8:
            mt += 1
        if cov <= 0.2:
            ml += 1
    return mt, ml


def mtbf(rec):
    """(MTBF_strict, MTBF_monotone), walking each track's timeline."""
    total = failures = gaps = 0
    for g in sorted({g for f in rec.frames for g in rec.gt_present[f]}):
        seg_len, seg_pid, in_gap = 0, None, False
        for f in [f for f in rec.frames if g in rec.gt_present[f]]:
            entry = rec.matches[f].get(g)
            if entry is None:
                if seg_len:
                    failures += 1
                    seg_len, seg_pid = 0, None
                if not in_gap:
                    gaps += 1
                    in_gap = True
                continue
            in_gap = False
            if seg_pid is not None and entry[0] != seg_pid:
                failures += 1
                seg_len = 0
            seg_pid = entry[0]
            seg_len += 1
            total += 1
    if total == 0:
        return (0.0, 0.0)
    return (total / max(1, failures), total / max(1, failures + gaps))


def time_between_occlusions(gt, view):
    """Mean gap before, between and after each fish's occlusion events, in
    seconds."""
    gaps = []
    for evs in occlusion_events(gt, view).values():
        if not evs:
            gaps.append(float(gt.n_frames))
            continue
        gaps.append(float(evs[0][0]))
        for (s1, e1), (s2, e2) in zip(evs, evs[1:]):
            gaps.append(float(s2 - e1 - 1))
        gaps.append(float(gt.n_frames - 1 - evs[-1][1]))
    return (sum(gaps) / len(gaps) / gt.fps) if gaps else 0.0


def csv_rows(rows) -> str:
    """Data rows as csv.writer writes them (default dialect)."""
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue()


def switch_path(gallery, main):
    """The lengths of the switch edges on the cheapest frame-by-frame walk
    over both tracklets' points that visits each, found by backtracking;
    None when no such walk exists."""
    if not (gallery.first_frame <= main.last_frame
            and main.first_frame <= gallery.last_frame):
        return None
    gallery_points, main_points = frame_points(gallery), frame_points(main)
    layers = []
    for f in sorted(set(gallery_points) | set(main_points)):
        layer = []
        if f in main_points:
            layer.append(("m", main_points[f]))
        if f in gallery_points:
            layer.append(("g", gallery_points[f]))
        layers.append(layer)

    # state: (node index, saw gallery, saw main) -> (cost, parent state)
    states = {}
    for i, (src, _) in enumerate(layers[0]):
        states[(i, src == "g", src == "m")] = (0.0, None)
    trail = [states]
    for layer_prev, layer in zip(layers, layers[1:]):
        nxt = {}
        for (i, sg, sm), (cost, _) in states.items():
            for j, (src, p) in enumerate(layer):
                c = cost + float(np.linalg.norm(p - layer_prev[i][1]))
                key = (j, sg or src == "g", sm or src == "m")
                if key not in nxt or c < nxt[key][0]:
                    nxt[key] = (c, (i, sg, sm))
        states = nxt
        trail.append(states)

    finals = [(cost, key) for key, (cost, _) in states.items()
              if key[1] and key[2]]
    if not finals:
        return None
    _, key = min(finals, key=lambda item: item[0])
    indices = []
    for states in reversed(trail):
        indices.append(key[0])
        key = states[key][1]
        if key is None:
            break
    indices.reverse()

    edges = []
    for k in range(1, len(indices)):
        (src_a, pa) = layers[k - 1][indices[k - 1]]
        (src_b, pb) = layers[k][indices[k]]
        if src_a != src_b:
            edges.append(float(np.linalg.norm(pb - pa)))
    return edges
