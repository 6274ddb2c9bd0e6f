"""Independent reference code that the tests compare the library against.

The scalar geometry below does one point or one pixel pair at a time, in
the plain textbook form. The library only has the batched forms
(`project_batch`, `triangulate_batch`); the gates check them against
these. `graph_from_weights` builds an association graph from bare
weights, for tests of path extraction on hand-made or random DAGs.
`skeletonize` and `kernel_response` are the whole-image forms of the
detector's thinning and keypoint response: every pass of the thinning
sums the neighbours of every pixel, and the response is a 5x5
convolution. `match_frames` and `id_metrics` score one (ground truth,
prediction) pair at a time with `np.linalg.norm`; `mt_ml`, `mtbf` and
`time_between_occlusions` walk each track frame by frame. `csv_rows`
writes data rows through `csv.writer`.
"""

import csv
import io
import math

import numpy as np
from scipy import ndimage
from scipy.optimize import linear_sum_assignment

from stereomot import AssociationGraph, NodeCandidate, Tracklet2D
from stereomot.geometry import PARALLEL_TOL, CameraModel
from stereomot.metrics import MatchSequence, _gt_positions, occlusion_events
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


def graph_from_weights(node_weights: dict,
                       edge_weights: dict) -> AssociationGraph:
    """A graph whose node `nid` has weight `node_weights[nid]` and 2D
    tracklets of its own, so removing a path removes only its nodes.
    `edge_weights` maps (src, dst) to a weight; it must form a DAG."""
    nodes = {nid: NodeCandidate(top=Tracklet2D(id=nid, view="top"),
                                front=Tracklet2D(id=nid, view="front"),
                                points={}, weight=float(w))
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


def match_frames(pred, gt, dist_thresh, space="3d", view=None):
    """Greedy-persistent gated matching, one pair at a time: a kept pair's
    distance is np.linalg.norm of the pair, a solver pair's the square root
    of np.sum of its squared differences."""
    pos, present = _gt_positions(gt, space, view)
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
    return MatchSequence(frames=frames, gt_present=gt_present,
                         pred_present=pred_present, matches=matches)


def id_metrics(pred, gt, dist_thresh, space="3d", view=None):
    """(IDP, IDR, IDF1), counting each fish's gated frames with each track
    one frame at a time."""
    pos, present = _gt_positions(gt, space, view)
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


def mt_ml(seq):
    """Counts of mostly-tracked (coverage >= 0.8) and mostly-lost (<= 0.2)
    ground-truth tracks."""
    present, covered = {}, {}
    for f in seq.frames:
        for g in seq.gt_present[f]:
            present[g] = present.get(g, 0) + 1
            if g in seq.matches[f]:
                covered[g] = covered.get(g, 0) + 1
    mt = ml = 0
    for g, n in present.items():
        cov = covered.get(g, 0) / n
        if cov >= 0.8:
            mt += 1
        if cov <= 0.2:
            ml += 1
    return mt, ml


def mtbf(seq):
    """(MTBF_strict, MTBF_monotone), walking each track's timeline."""
    total = failures = gaps = 0
    for g in sorted({g for f in seq.frames for g in seq.gt_present[f]}):
        seg_len, seg_pid, in_gap = 0, None, False
        for f in [f for f in seq.frames if g in seq.gt_present[f]]:
            entry = seq.matches[f].get(g)
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
