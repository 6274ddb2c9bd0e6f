"""Per-view 2D tracklet construction by gated global assignment.

Each frame's detections are matched to live tracklets with the Hungarian
algorithm on gated distances (L2 on head points, or Mahalanobis on blob
centroids). There is deliberately no motion model: unmatched detections
start new tracklets and tracklets idle for more than tau_k frames are
terminated, yielding short, conservative fragments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .detect import Detection

# Forbidden pairs get this cost; the optimum is validated post-hoc so the
# solver can never silently commit a gated pair.
GATE_SENTINEL = 1e9

EUCLIDEAN_HEAD = "euclidean-head"
MAHALANOBIS_CENTROID = "mahalanobis-centroid"
_MODES = (EUCLIDEAN_HEAD, MAHALANOBIS_CENTROID)


def hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment over min(n, m) pairs.

    Costs must be finite; encode forbidden pairs with a large sentinel and
    reject them afterwards.
    """
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    if cost.size == 0:
        return []
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def mahalanobis(p, center, cov) -> float:
    """sqrt((p-center)^T cov^-1 (p-center)); cov is regularized by +1e-6*I
    when singular."""
    d = np.asarray(p, dtype=float) - np.asarray(center, dtype=float)
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
    if np.linalg.eigvalsh(cov)[0] < 1e-12:
        cov = cov + 1e-6 * np.eye(2)
    return float(math.sqrt(d @ np.linalg.solve(cov, d)))


@dataclass(frozen=True)
class Track2DParams:
    delta_top: float = 15.0    # px
    delta_front: float = 0.5   # std-devs (Mahalanobis mode) or px
    tau_k: int = 10            # frames a tracklet may idle before termination
    top_mode: str = EUCLIDEAN_HEAD
    front_mode: str = MAHALANOBIS_CENTROID

    def __post_init__(self):
        if self.delta_top <= 0 or self.delta_front <= 0 or self.tau_k <= 0:
            raise ValueError("Track2DParams values must be positive")
        if self.top_mode not in _MODES or self.front_mode not in _MODES:
            raise ValueError(f"distance mode must be one of {_MODES}")

    def gate(self, view: str) -> float:
        return self.delta_top if view == "top" else self.delta_front

    def mode(self, view: str) -> str:
        return self.top_mode if view == "top" else self.front_mode


@dataclass
class Tracklet2D:
    """Ordered per-view detection sequence; frames are the assigned frames."""

    id: int
    view: str
    frames: list[int] = field(default_factory=list)
    detections: dict[int, Detection] = field(default_factory=dict)

    @property
    def first_frame(self) -> int:
        return self.frames[0]

    @property
    def last_frame(self) -> int:
        return self.frames[-1]

    @property
    def last_detection(self) -> Detection:
        return self.detections[self.frames[-1]]

    def append(self, frame: int, det: Detection) -> None:
        if self.frames and frame <= self.frames[-1]:
            raise ValueError("tracklet frames must strictly increase")
        self.frames.append(frame)
        self.detections[frame] = det


def _distance(det: Detection, tracklet: Tracklet2D, mode: str) -> float:
    last = tracklet.last_detection
    if mode == EUCLIDEAN_HEAD:
        return math.hypot(det.head[0] - last.head[0], det.head[1] - last.head[1])
    point = det.centroid if det.centroid is not None else det.head
    center = last.centroid if last.centroid is not None else last.head
    cov = last.cov if last.cov is not None else det.cov
    if cov is None:
        cov = np.eye(2)
    return mahalanobis(point, center, cov)


def _box_cov(det: Detection) -> Detection:
    """Uniform-box surrogate covariance for a detection that has a box but
    no blob statistics."""
    if det.cov is not None or det.bbox is None:
        return det
    w, h = det.bbox[2], det.bbox[3]
    centroid = det.centroid if det.centroid is not None else det.head
    return replace(det, cov=np.diag([w * w / 12.0, h * h / 12.0]),
                   centroid=centroid)


def build_tracklets(frames_dets: dict[int, list[Detection]],
                    params: Track2DParams = Track2DParams(),
                    view: str | None = None,
                    start_id: int = 0) -> list[Tracklet2D]:
    """Build tracklets for one view from per-frame detection lists.

    Termination is strict: a tracklet may still receive a detection at
    frame f iff f - last_assigned_frame <= tau_k. In Mahalanobis mode a
    detection with a box but no covariance gets the uniform-box surrogate
    diag(w^2/12, h^2/12), centered on its head if it has no centroid.
    """
    frames = sorted(frames_dets)
    if view is None:
        for f in frames:
            if frames_dets[f]:
                view = frames_dets[f][0].view
                break
    if view is None:
        return []
    gate = params.gate(view)
    mode = params.mode(view)

    next_id = start_id
    active: list[Tracklet2D] = []
    done: list[Tracklet2D] = []
    for f in frames:
        still = []
        for t in active:
            (still if f - t.last_frame <= params.tau_k else done).append(t)
        active = still
        dets = [d for d in frames_dets[f] if d.view == view]
        if mode == MAHALANOBIS_CENTROID:
            dets = [_box_cov(d) for d in dets]
        assigned = [False] * len(dets)
        if active and dets:
            cost = np.empty((len(dets), len(active)))
            for i, det in enumerate(dets):
                for j, t in enumerate(active):
                    d = _distance(det, t, mode)
                    cost[i, j] = d if d <= gate else GATE_SENTINEL
            for i, j in hungarian(cost):
                if cost[i, j] <= gate:
                    active[j].append(f, dets[i])
                    assigned[i] = True
        for i, det in enumerate(dets):
            if not assigned[i]:
                t = Tracklet2D(id=next_id, view=view)
                next_id += 1
                t.append(f, det)
                active.append(t)
    done.extend(active)
    done.sort(key=lambda t: t.id)
    return done
