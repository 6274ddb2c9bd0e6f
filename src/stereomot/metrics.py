"""Scene-complexity measures and multi-object tracking evaluation.

Complexity summarizes how often and how severely fish occlude each other in
each camera view, combined into a single score psi. Tracking quality is
scored with the usual event-based suite (MOTA/MOTP, precision/recall,
identity F1, mostly-tracked counts, mean time between failures) against
per-frame gated matching with match persistence.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import VIEWS
from .track2d import hungarian

_SENTINEL = 1e18


@dataclass(frozen=True)
class GTEntry:
    bbox: tuple[float, float, float, float]  # x, y, w, h in pixels
    head: tuple[float, float]
    occluded: bool


@dataclass
class GroundTruth:
    fps: float
    n_frames: int
    n_fish: int
    views: dict[tuple[int, int, str], GTEntry] = field(default_factory=dict)
    points3d: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.n_frames / self.fps

    @property
    def fish_ids(self) -> list[int]:
        ids = {i for (_, i) in self.points3d}
        ids.update(i for (_, i, _) in self.views)
        return sorted(ids)


def occlusion_events(gt: GroundTruth, view: str) -> dict[int, list[tuple[int, int]]]:
    """Maximal runs of occluded frames per fish: fish -> [(start, end)]."""
    events: dict[int, list[tuple[int, int]]] = {i: [] for i in gt.fish_ids}
    for i in gt.fish_ids:
        start = None
        for f in range(gt.n_frames):
            entry = gt.views.get((f, i, view))
            flagged = entry is not None and entry.occluded
            if flagged and start is None:
                start = f
            elif not flagged and start is not None:
                events[i].append((start, f - 1))
                start = None
        if start is not None:
            events[i].append((start, gt.n_frames - 1))
    return events


@dataclass(frozen=True)
class ViewComplexity:
    oc: float   # occlusion events per second
    ol: float   # mean event length, seconds
    tbo: float  # mean time between occlusions, seconds
    ibo: float  # mean summed bbox-overlap fraction while occluded


def _bbox_overlap_px(a, b) -> float:
    ix = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    iy = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    return max(0.0, ix) * max(0.0, iy)


def complexity_stats(gt: GroundTruth, view: str) -> ViewComplexity:
    events = occlusion_events(gt, view)
    flat = [ev for evs in events.values() for ev in evs]
    oc = len(flat) / gt.duration
    ol = (sum(e - s + 1 for s, e in flat) / len(flat) / gt.fps) if flat else 0.0

    gaps: list[float] = []
    for i in gt.fish_ids:
        evs = events[i]
        if not evs:
            gaps.append(float(gt.n_frames))
            continue
        gaps.append(float(evs[0][0]))
        for (s1, e1), (s2, e2) in zip(evs, evs[1:]):
            gaps.append(float(s2 - e1 - 1))
        gaps.append(float(gt.n_frames - 1 - evs[-1][1]))
    tbo = (sum(gaps) / len(gaps) / gt.fps) if gaps else 0.0

    ratios: list[float] = []
    for f in range(gt.n_frames):
        flagged = [(i, gt.views[(f, i, view)].bbox) for i in gt.fish_ids
                   if (f, i, view) in gt.views and gt.views[(f, i, view)].occluded]
        for i, box in flagged:
            area = box[2] * box[3]
            if area <= 0:
                continue
            inter = sum(_bbox_overlap_px(box, other)
                        for j, other in flagged if j != i)
            ratios.append(inter / area)
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


@dataclass
class MatchSequence:
    """Per-frame gated matching between ground truth and predictions."""

    frames: list[int]
    gt_present: dict[int, list[int]]            # frame -> gt ids
    pred_present: dict[int, list[int]]          # frame -> pred ids
    matches: dict[int, dict[int, tuple[int, float]]]  # frame -> gt -> (pid, dist)


def _gt_positions(gt: GroundTruth, space: str, view: str | None):
    if space == "3d":
        return {key: np.asarray(p, dtype=float)
                for key, p in gt.points3d.items()}
    if space == "2d":
        if view not in VIEWS:
            raise ValueError("2d evaluation needs view 'top' or 'front'")
        return {(f, i): np.asarray(e.head, dtype=float)
                for (f, i, v), e in gt.views.items() if v == view}
    raise ValueError("space must be '3d' or '2d'")


def match_frames(pred: dict[int, dict[int, np.ndarray]], gt: GroundTruth,
                 dist_thresh: float, space: str = "3d",
                 view: str | None = None) -> MatchSequence:
    """Greedy-persistent gated matching, Hungarian on squared distances.

    A previous frame's (gt, pred) pair is kept whenever both are present and
    still within the gate; the remainder is matched per frame and pairs
    beyond the gate are rejected even if the solver picked them.
    """
    gt_pos = _gt_positions(gt, space, view)
    frames = sorted({f for (f, _) in gt_pos}
                    | {f for track in pred.values() for f in track})
    gt_present = {f: sorted(i for (ff, i) in gt_pos if ff == f) for f in frames}
    pred_present = {
        f: sorted(pid for pid, track in pred.items() if f in track)
        for f in frames}

    matches: dict[int, dict[int, tuple[int, float]]] = {}
    prev: dict[int, int] = {}
    for f in frames:
        gids, pids = gt_present[f], pred_present[f]
        here: dict[int, tuple[int, float]] = {}
        taken: set[int] = set()
        for g in gids:
            p = prev.get(g)
            if p is None or p not in pids or p in taken:
                continue
            d = float(np.linalg.norm(gt_pos[(f, g)] - pred[p][f]))
            if d <= dist_thresh:
                here[g] = (p, d)
                taken.add(p)
        rest_g = [g for g in gids if g not in here]
        rest_p = [p for p in pids if p not in taken]
        if rest_g and rest_p:
            cost = np.empty((len(rest_g), len(rest_p)))
            for a, g in enumerate(rest_g):
                for b, p in enumerate(rest_p):
                    d2 = float(np.sum((gt_pos[(f, g)] - pred[p][f]) ** 2))
                    cost[a, b] = d2 if d2 <= dist_thresh ** 2 else _SENTINEL
            for a, b in hungarian(cost):
                if cost[a, b] <= dist_thresh ** 2:
                    here[rest_g[a]] = (rest_p[b], math.sqrt(cost[a, b]))
        matches[f] = here
        prev = {g: p for g, (p, _) in here.items()}
    return MatchSequence(frames=frames, gt_present=gt_present,
                         pred_present=pred_present, matches=matches)


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
    fp = fn = idsw = frag = n_match = 0
    dists: list[float] = []
    last_pred: dict[int, int] = {}
    was_matched: dict[int, bool] = {}
    in_gap: dict[int, bool] = {}
    gt_total = 0
    for f in seq.frames:
        here = seq.matches[f]
        gids = seq.gt_present[f]
        gt_total += len(gids)
        fn += len(gids) - len(here)
        fp += len(seq.pred_present[f]) - len(here)
        n_match += len(here)
        for g in gids:
            if g in here:
                p, d = here[g]
                dists.append(d)
                if g in last_pred and last_pred[g] != p:
                    idsw += 1
                if was_matched.get(g) and in_gap.get(g):
                    frag += 1
                last_pred[g] = p
                was_matched[g] = True
                in_gap[g] = False
            elif was_matched.get(g):
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


def id_metrics(pred: dict[int, dict[int, np.ndarray]], gt: GroundTruth,
               dist_thresh: float, space: str = "3d",
               view: str | None = None) -> tuple[float, float, float]:
    """(IDP, IDR, IDF1) from the optimal whole-track identity mapping."""
    gt_pos = _gt_positions(gt, space, view)
    gids = sorted({i for (_, i) in gt_pos})
    pids = sorted(pred)
    gt_frames = {g: {f for (f, i) in gt_pos if i == g} for g in gids}
    binned: dict[tuple[int, int], int] = {}
    for gi, g in enumerate(gids):
        for pi, p in enumerate(pids):
            n = 0
            for f in gt_frames[g] & set(pred[p]):
                if float(np.linalg.norm(gt_pos[(f, g)] - pred[p][f])) <= dist_thresh:
                    n += 1
            binned[(gi, pi)] = n

    ng, np_ = len(gids), len(pids)
    total_g = sum(len(v) for v in gt_frames.values())
    total_p = sum(len(v) for v in pred.values())
    if ng == 0 and np_ == 0:
        return (0.0, 0.0, 0.0)
    size = ng + np_
    cost = np.zeros((size, size))
    big = 1e15
    for i in range(ng):
        for j in range(np_):
            cost[i, j] = (len(gt_frames[gids[i]]) + len(pred[pids[j]])
                          - 2 * binned[(i, j)])
        for j in range(np_, size):
            cost[i, j] = len(gt_frames[gids[i]]) if j - np_ == i else big
    for i in range(ng, size):
        for j in range(np_):
            cost[i, j] = len(pred[pids[j]]) if i - ng == j else big
    idtp = 0
    for i, j in hungarian(cost):
        if i < ng and j < np_:
            idtp += binned[(i, j)]
    idfn = total_g - idtp
    idfp = total_p - idtp
    idp = 100.0 * idtp / (idtp + idfp) if idtp + idfp else 0.0
    idr = 100.0 * idtp / (idtp + idfn) if idtp + idfn else 0.0
    idf1 = (100.0 * 2 * idtp / (2 * idtp + idfp + idfn)
            if 2 * idtp + idfp + idfn else 0.0)
    return (idp, idr, idf1)


def mt_ml(seq: MatchSequence) -> tuple[int, int]:
    """Counts of mostly-tracked (coverage >= 0.8) and mostly-lost (<= 0.2)
    ground-truth tracks."""
    present: dict[int, int] = {}
    covered: dict[int, int] = {}
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


def mtbf(seq: MatchSequence) -> tuple[float, float]:
    """(MTBF_strict, MTBF_monotone) in frames, pooled over all GT tracks.

    A segment is a maximal run of matched frames with a constant predicted
    id along one track's presence timeline; it fails unless it reaches the
    track's final present frame. The monotone variant also charges every
    maximal miss gap (leading, interior, and trailing).
    """
    total = failures = gaps = 0
    gids = sorted({g for f in seq.frames for g in seq.gt_present[f]})
    for g in gids:
        timeline = [f for f in seq.frames if g in seq.gt_present[f]]
        seg_len = 0
        seg_pid = None
        in_gap = False
        for f in timeline:
            entry = seq.matches[f].get(g)
            if entry is None:
                if seg_len:
                    failures += 1  # segment ended before the track did
                    seg_len, seg_pid = 0, None
                if not in_gap:
                    gaps += 1
                    in_gap = True
                continue
            in_gap = False
            pid, _ = entry
            if seg_pid is not None and pid != seg_pid:
                failures += 1  # identity switch terminates the segment
                seg_len = 0
            seg_pid = pid
            seg_len += 1
            total += 1
        # a segment alive at the end of the timeline is not a failure
    if total == 0:
        return (0.0, 0.0)
    return (total / max(1, failures), total / max(1, failures + gaps))


def oracle_tracks(gt: GroundTruth, space: str = "3d", view: str | None = None,
                  same_id: bool = True) -> dict[int, dict[int, np.ndarray]]:
    """Perfect tracks from the ground truth with occluded frames dropped.

    In 3D a frame is dropped when the fish is occluded in either view. With
    same_id=False every contiguous visible run gets a fresh track id.
    """
    def visible(f: int, i: int) -> bool:
        if space == "3d":
            return not any(
                gt.views.get((f, i, v), GTEntry((0, 0, 0, 0), (0, 0), False)).occluded
                for v in VIEWS)
        entry = gt.views.get((f, i, view))
        return entry is not None and not entry.occluded

    gt_pos = _gt_positions(gt, space, view)
    out: dict[int, dict[int, np.ndarray]] = {}
    next_id = 1
    for i in gt.fish_ids:
        frames = sorted(f for (f, ii) in gt_pos if ii == i and visible(f, i))
        if same_id:
            out[i] = {f: gt_pos[(f, i)] for f in frames}
            continue
        run: list[int] = []
        for f in frames:
            if run and f != run[-1] + 1:
                out[next_id] = {ff: gt_pos[(ff, i)] for ff in run}
                next_id += 1
                run = []
            run.append(f)
        if run:
            out[next_id] = {ff: gt_pos[(ff, i)] for ff in run}
            next_id += 1
    return out


def tracks_to_pred(tracks) -> dict[int, dict[int, np.ndarray]]:
    """Adapt stitched tracks to the {track_id: {frame: point}} form."""
    return {t.fish_id: {f: np.asarray(p, dtype=float)
                        for f, p in t.points.items()} for t in tracks}


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


def evaluate_tracks(pred: dict[int, dict[int, np.ndarray]], gt: GroundTruth,
                    dist_thresh: float, space: str = "3d",
                    view: str | None = None) -> EvalReport:
    seq = match_frames(pred, gt, dist_thresh, space, view)
    clear = clear_mot(seq)
    idp, idr, idf1 = id_metrics(pred, gt, dist_thresh, space, view)
    mt, ml = mt_ml(seq)
    mtbf_s, mtbf_m = mtbf(seq)
    n_gt = len({g for f in seq.frames for g in seq.gt_present[f]})
    return EvalReport(
        mota=clear.mota, motp=clear.motp, precision=clear.precision,
        recall=clear.recall, id_precision=idp, id_recall=idr, id_f1=idf1,
        fp=clear.fp, fn=clear.fn, idsw=clear.idsw, frag=clear.frag,
        mt=mt, ml=ml, mtbf_strict=mtbf_s, mtbf_monotone=mtbf_m,
        gt_total=clear.gt_total, n_matches=clear.n_matches,
        n_gt_tracks=n_gt, n_pred_tracks=len(pred))
