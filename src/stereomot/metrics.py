"""Scene-complexity measures and multi-object tracking evaluation.

Complexity summarizes how often and how severely fish occlude each other in
each camera view, combined into a single score psi. Tracking quality is
scored with the usual event-based suite (MOTA/MOTP, precision/recall,
identity F1, mostly-tracked counts, mean time between failures) against
per-frame gated matching with match persistence.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import VIEWS
from .track2d import hungarian

_SENTINEL = 1e18


class GroundTruth:
    """Annotations laid out per frame for a fixed, ascending fish-id column.

    Column j of every array is fish ``fish_ids[j]``: ``points3d`` (F,N,3)
    and, per view, ``heads`` (F,N,2), ``boxes`` (F,N,4) as x, y, w, h pixels
    and ``occluded`` (F,N). NaN marks an absent point, head or box; an
    absent entry is never flagged occluded.
    """

    def __init__(self, fps: float, n_frames: int, ids):
        self.fps = fps
        self._fish_ids = tuple(int(i) for i in ids)
        if list(self._fish_ids) != sorted(set(self._fish_ids)):
            raise ValueError("fish ids must be unique and ascending")
        shape = (n_frames, len(self._fish_ids))
        self.points3d = np.full(shape + (3,), np.nan)
        self.heads = {v: np.full(shape + (2,), np.nan) for v in VIEWS}
        self.boxes = {v: np.full(shape + (4,), np.nan) for v in VIEWS}
        self.occluded = {v: np.zeros(shape, dtype=bool) for v in VIEWS}

    @property
    def n_frames(self) -> int:
        return self.points3d.shape[0]

    @property
    def n_fish(self) -> int:
        return self.points3d.shape[1]

    @property
    def fish_ids(self) -> tuple[int, ...]:
        return self._fish_ids


def occlusion_events(gt: GroundTruth, view: str) -> dict[int, list[tuple[int, int]]]:
    """Maximal runs of occluded frames per fish: fish -> [(start, end)]."""
    flags = np.pad(gt.occluded[view].astype(np.int8), ((1, 1), (0, 0)))
    edges = np.diff(flags, axis=0)
    return {i: list(zip(np.flatnonzero(edges[:, j] == 1).tolist(),
                        (np.flatnonzero(edges[:, j] == -1) - 1).tolist()))
            for j, i in enumerate(gt.fish_ids)}


@dataclass(frozen=True)
class ViewComplexity:
    oc: float   # occlusion events per second
    ol: float   # mean event length, seconds
    tbo: float  # mean time between occlusions, seconds
    ibo: float  # mean summed bbox-overlap fraction while occluded


def pair_overlap(boxes: np.ndarray) -> np.ndarray:
    """Pixel overlap area of every pair of (..., N, 4) x, y, w, h boxes as
    (..., N, N), zero on the diagonal."""
    a, b = boxes[..., :, None, :], boxes[..., None, :, :]
    ix = (np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2])
          - np.maximum(a[..., 0], b[..., 0]))
    iy = (np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3])
          - np.maximum(a[..., 1], b[..., 1]))
    area = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    return np.where(np.eye(boxes.shape[-2], dtype=bool), 0.0, area)


def complexity_stats(gt: GroundTruth, view: str) -> ViewComplexity:
    events = occlusion_events(gt, view)
    flat = [ev for evs in events.values() for ev in evs]
    oc = len(flat) / (gt.n_frames / gt.fps)
    ol = (sum(e - s + 1 for s, e in flat) / len(flat) / gt.fps) if flat else 0.0

    # Each fish's gaps before, between and after its events.
    gaps = [float(s - e - 1) for evs in events.values()
            for e, s in zip([-1] + [e for _, e in evs],
                            [s for s, _ in evs] + [gt.n_frames])]
    tbo = (sum(gaps) / len(gaps) / gt.fps) if gaps else 0.0

    # Overlap with the other flagged boxes of the frame as a fraction of the
    # box's own area. Python's sum adds in fish order; np.sum would pair the
    # terms differently and can change the last digit.
    occ, boxes = gt.occluded[view], gt.boxes[view]
    inter = np.where(occ[:, None, :], pair_overlap(boxes), 0.0)
    area = boxes[..., 2] * boxes[..., 3]
    ratios = [sum(inter[f, j].tolist()) / float(area[f, j])
              for f, j in np.argwhere(occ & (area > 0))]
    ibo = sum(ratios) / len(ratios) if ratios else 0.0
    return ViewComplexity(oc=oc, ol=ol, tbo=tbo, ibo=ibo)


@dataclass(frozen=True)
class ComplexityReport:
    top: ViewComplexity
    front: ViewComplexity
    psi: float

    def to_dict(self) -> dict:
        return asdict(self)


def complexity_psi(top: ViewComplexity, front: ViewComplexity) -> float:
    """psi = 1/2 * sum over views of OC * OL * IBO / TBO."""
    total = 0.0
    for stats in (top, front):
        num = stats.oc * stats.ol * stats.ibo
        if num == 0.0:
            continue
        if stats.tbo == 0.0:
            return math.inf
        total += num / stats.tbo
    return 0.5 * total


def complexity_report(gt: GroundTruth) -> ComplexityReport:
    top = complexity_stats(gt, "top")
    front = complexity_stats(gt, "front")
    return ComplexityReport(top=top, front=front,
                            psi=complexity_psi(top, front))


# ---------------------------------------------------------------------------
# tracking evaluation
# A prediction is one (track id, frame (n,), point (n, d)) triple per track.
# Ids are unique; a track has one point per frame and may have no rows.
Prediction = list[tuple[int, np.ndarray, np.ndarray]]


@dataclass
class MatchSequence:
    """Gated matching, one row per scored frame (every frame with ground
    truth or a predicted point) and one column per fish."""

    frames: np.ndarray   # (K,) ascending
    pids: list[int]      # predicted track ids, ascending
    present: np.ndarray  # (K,N) fish with ground truth
    n_pred: np.ndarray   # (K,) predicted points
    track: np.ndarray    # (K,N) the match's index into pids, or -1
    dist: np.ndarray     # (K,N) the match's distance, or NaN


def _gt_positions(gt: GroundTruth,
                  view: str | None) -> tuple[np.ndarray, np.ndarray]:
    """(positions (F,N,d), present (F,N)): the 3D points without a view,
    the view's head pixels with one."""
    if view is not None and view not in VIEWS:
        raise ValueError(f"view must be None, 'top' or 'front', got {view!r}")
    pos = gt.points3d if view is None else gt.heads[view]
    return pos, ~np.isnan(pos[..., 0])


def _pred_offsets(pred: Prediction,
                  pos: np.ndarray) -> tuple[list[int], np.ndarray, ...]:
    """The ascending track ids, then every point by frame, then by track:
    its index into the ids, its frame, and each fish's ground truth minus
    the point (K, N, d), NaN where the frame holds no ground truth."""
    ids, d = [int(i) for i, _, _ in pred], pos.shape[-1]
    pids = sorted(set(ids))
    if len(pids) < len(ids):
        raise ValueError("predicted track ids must be unique")
    if any(np.shape(p) != (len(f), d) for _, f, p in pred):
        raise ValueError(f"a predicted track needs one {d}-vector per frame")
    # The empty heads keep the dtypes and let a prediction have no tracks.
    track = np.repeat(np.searchsorted(pids, ids), [len(f) for _, f, _ in pred])
    frame = np.concatenate([np.empty(0, np.intp)] + [f for _, f, _ in pred])
    point = np.concatenate([np.empty((0, d))] + [p for _, _, p in pred])
    order = np.lexsort((track, frame))
    track, frame = track[order], frame[order]
    if np.any((np.diff(frame) == 0) & (np.diff(track) == 0)):
        raise ValueError("a predicted track repeats a frame")
    gt = np.full((len(frame),) + pos.shape[1:], np.nan)
    inside = (frame >= 0) & (frame < len(pos))
    gt[inside] = pos[frame[inside]]
    return pids, track, frame, gt - point[order, None]


def _norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm over the last axis, with the bits of one call per
    vector: the stacked row-times-column matmul takes the same dot product
    (np.linalg.norm(d, axis=-1) and einsum round differently). A vector
    near 1e308 gives inf, past every gate, without a warning."""
    with np.errstate(over="ignore"):
        return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]


def match_frames(pred: Prediction, gt: GroundTruth,
                 dist_thresh: float, view: str | None = None) -> MatchSequence:
    """Greedy-persistent gated matching, Hungarian on squared distances.

    A previous frame's (gt, pred) pair is kept whenever both are present and
    still within the gate; the remainder is matched per frame and pairs
    beyond the gate are rejected even if the solver picked them.
    """
    pos, has_gt = _gt_positions(gt, view)
    pids, track, frame, diff = _pred_offsets(pred, pos)
    with np.errstate(over="ignore"):
        dist, sq = _norms(diff), (diff ** 2).sum(-1)  # (point, fish)
    frames = np.union1d(np.flatnonzero(has_gt.any(axis=1)), frame)
    starts = np.searchsorted(frame, frames)
    ends = np.searchsorted(frame, frames, side="right")
    present = np.zeros((len(frames), gt.n_fish), dtype=bool)
    inside = (frames >= 0) & (frames < gt.n_frames)
    present[inside] = has_gt[frames[inside]]
    seq = MatchSequence(frames=frames, pids=pids, present=present,
                        n_pred=ends - starts,
                        track=np.full(present.shape, -1),
                        dist=np.full(present.shape, np.nan))

    track = track.tolist()
    prev = [-1] * gt.n_fish  # each fish's track at the previous frame
    for k, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        row = {b: r for r, b in enumerate(track[start:end], start)}
        cols = np.flatnonzero(present[k]).tolist()
        for j in cols:  # prev pairs each track with one fish at most
            b = prev[j]
            if b not in row:
                continue
            d = float(dist[row[b], j])
            if d <= dist_thresh:
                seq.track[k, j], seq.dist[k, j] = b, d
        kept = seq.track[k].tolist()
        rest_g = [j for j in cols if kept[j] < 0]
        rest_p = [b for b in row if b not in kept]
        if rest_g and rest_p:
            d2 = sq[np.ix_([row[b] for b in rest_p], rest_g)].T
            cost = np.where(d2 <= dist_thresh ** 2, d2, _SENTINEL)
            for a, c in hungarian(cost):
                if cost[a, c] <= dist_thresh ** 2:
                    seq.track[k, rest_g[a]] = rest_p[c]
                    seq.dist[k, rest_g[a]] = math.sqrt(cost[a, c])
        prev = seq.track[k].tolist()
    return seq


def _timelines(seq: MatchSequence) -> list[np.ndarray]:
    """Each fish's track index at every frame it is present, -1 for a
    miss, for the fish present at least once."""
    return [seq.track[seq.present[:, j], j]
            for j in np.flatnonzero(seq.present.any(axis=0))]


@dataclass(frozen=True)
class ClearMot:
    mota: float
    motp: float
    precision: float
    recall: float
    fp: int
    fn: int
    idsw: int
    frag: int
    gt_total: int
    n_matches: int


def clear_mot(seq: MatchSequence) -> ClearMot:
    gt_total = int(seq.present.sum())
    if gt_total == 0:
        raise ValueError("ground truth contains no object presence")
    matched = seq.track >= 0
    n_match = int(matched.sum())
    fn = gt_total - n_match
    fp = int(seq.n_pred.sum()) - n_match
    idsw = frag = 0
    for t in _timelines(seq):
        hit = t >= 0
        ids = t[hit]
        idsw += int(np.count_nonzero(ids[1:] != ids[:-1]))
        # A match that ends a miss gap after the fish's first match.
        frag += int(np.count_nonzero(
            hit[1:] & ~hit[:-1] & np.logical_or.accumulate(hit)[:-1]))
    mota = 100.0 * (1.0 - (fn + fp + idsw) / gt_total)
    # Summed in (frame, fish) order: the order fixes the last bits.
    motp = float(np.mean(seq.dist[matched])) if n_match else 0.0
    precision = 100.0 * n_match / (n_match + fp) if n_match + fp else 0.0
    recall = 100.0 * n_match / gt_total
    return ClearMot(mota=mota, motp=motp, precision=precision, recall=recall,
                    fp=fp, fn=fn, idsw=idsw, frag=frag, gt_total=gt_total,
                    n_matches=n_match)


def id_metrics(pred: Prediction, gt: GroundTruth, dist_thresh: float,
               view: str | None = None) -> tuple[float, float, float]:
    """(IDP, IDR, IDF1) from the optimal whole-track identity mapping."""
    from scipy.optimize import linear_sum_assignment  # loaded at first use
    pos, present = _gt_positions(gt, view)
    pids, track, _, diff = _pred_offsets(pred, pos)
    # Each track's frames within the gate of each fish, counted at once.
    k, j = np.nonzero(_norms(diff) <= dist_thresh)
    binned = np.bincount(j * len(pids) + track[k],
                         minlength=gt.n_fish * len(pids)
                         ).reshape(gt.n_fish, len(pids))
    # Maximizing the matched counts minimizes T_g + T_p - 2 * IDTP.
    rows, cols = linear_sum_assignment(binned, maximize=True)
    idtp = int(binned[rows, cols].sum())
    idfn = int(present.sum()) - idtp
    idfp = len(track) - idtp
    idp = 100.0 * idtp / (idtp + idfp) if idtp + idfp else 0.0
    idr = 100.0 * idtp / (idtp + idfn) if idtp + idfn else 0.0
    idf1 = (100.0 * 2 * idtp / (2 * idtp + idfp + idfn)
            if 2 * idtp + idfp + idfn else 0.0)
    return (idp, idr, idf1)


def mt_ml(seq: MatchSequence) -> tuple[int, int]:
    """Counts of mostly-tracked (coverage >= 0.8) and mostly-lost (<= 0.2)
    ground-truth tracks."""
    cov = np.array([np.mean(t >= 0) for t in _timelines(seq)])
    return int((cov >= 0.8).sum()), int((cov <= 0.2).sum())


def mtbf(seq: MatchSequence) -> tuple[float, float]:
    """(MTBF_strict, MTBF_monotone) in frames, pooled over all GT tracks.

    A segment is a maximal run of matched frames with a constant predicted
    id along one track's presence timeline; it fails unless it reaches the
    track's final present frame. The monotone variant also charges every
    maximal miss gap (at the start, in between and at the end).
    """
    total = failures = gaps = 0
    for t in _timelines(seq):
        # A segment fails when a miss or another track ends it; a gap of
        # misses starts at the first frame or after a match.
        hit = t >= 0
        total += int(np.count_nonzero(hit))
        failures += int(np.count_nonzero(hit[:-1] & (t[1:] != t[:-1])))
        gaps += int(np.count_nonzero(~hit & np.r_[True, hit[:-1]]))
    if total == 0:
        return (0.0, 0.0)
    return (total / max(1, failures), total / max(1, failures + gaps))


def oracle_tracks(gt: GroundTruth, view: str | None = None) -> Prediction:
    """Perfect tracks from the ground truth with occluded frames dropped.

    In 3D a frame is dropped when the fish is occluded in either view.
    """
    pos, present = _gt_positions(gt, view)
    occluded = (np.logical_or.reduce([gt.occluded[v] for v in VIEWS])
                if view is None else gt.occluded[view])
    visible = (present & ~occluded).T
    return [(i, np.flatnonzero(v), pos[v, j])
            for j, (i, v) in enumerate(zip(gt.fish_ids, visible))]


@dataclass(frozen=True)
class EvalReport:
    mota: float
    motp: float
    precision: float
    recall: float
    id_precision: float
    id_recall: float
    id_f1: float
    fp: int
    fn: int
    idsw: int
    frag: int
    mt: int
    ml: int
    mtbf_strict: float
    mtbf_monotone: float
    gt_total: int
    n_matches: int
    n_gt_tracks: int
    n_pred_tracks: int

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_tracks(pred: Prediction, gt: GroundTruth,
                    dist_thresh: float, view: str | None = None) -> EvalReport:
    """Score 3D tracks without a view, or one view's 2D head tracks."""
    seq = match_frames(pred, gt, dist_thresh, view)
    clear = clear_mot(seq)
    idp, idr, idf1 = id_metrics(pred, gt, dist_thresh, view)
    mt, ml = mt_ml(seq)
    mtbf_s, mtbf_m = mtbf(seq)
    return EvalReport(
        **asdict(clear), id_precision=idp, id_recall=idr, id_f1=idf1,
        mt=mt, ml=ml, mtbf_strict=mtbf_s, mtbf_monotone=mtbf_m,
        n_gt_tracks=len(_timelines(seq)), n_pred_tracks=len(pred))
