"""Per-view 2D tracklet construction by gated global assignment.

Each frame's detections are matched to live tracklets with the Hungarian
algorithm on gated distances (L2 on head points, or Mahalanobis on blob
centroids). There is deliberately no motion model: unmatched detections
start new tracklets and tracklets idle for more than tau_k frames are
terminated, yielding short, conservative fragments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def mahalanobis(p, center, cov):
    """sqrt((p-center)^T cov^-1 (p-center)) over (..., 2) points and centers
    and (..., 2, 2) covariances, broadcast together. A cov whose smallest
    eigenvalue is below 1e-12 is regularized by +1e-6*I."""
    d = np.asarray(p, dtype=float) - np.asarray(center, dtype=float)
    cov = np.asarray(cov, dtype=float)
    singular = np.linalg.eigvalsh(cov)[..., 0] < 1e-12
    cov = np.where(singular[..., None, None], cov + 1e-6 * np.eye(2), cov)
    # b as explicit (..., 2, 1) columns, and the quadratic form as a
    # stacked matmul: both give the same bits as the one-point products.
    x = np.linalg.solve(cov, d[..., None])
    return np.sqrt((d[..., None, :] @ x)[..., 0, 0])


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


def gate_matrix(dets: list[Detection], lasts: list[Detection],
                mode: str) -> np.ndarray:
    """(len(dets), len(lasts)) distances from each detection to each live
    tracklet's last detection.

    Euclidean mode: head to head. Mahalanobis mode: centroid (else head) to
    centroid (else head), under the last detection's covariance, else the
    new detection's, else the identity.
    """
    if mode == EUCLIDEAN_HEAD:
        return np.array([[math.hypot(d.head[0] - last.head[0],
                                     d.head[1] - last.head[1])
                          for last in lasts] for d in dets])
    eye = np.eye(2)
    points = np.array([d.head if d.centroid is None else d.centroid
                       for d in dets], dtype=float)
    centers = np.array([t.head if t.centroid is None else t.centroid
                        for t in lasts], dtype=float)
    own = np.array([eye if d.cov is None else d.cov for d in dets],
                   dtype=float)
    last = np.array([eye if t.cov is None else t.cov for t in lasts],
                    dtype=float)
    has_last = np.array([t.cov is not None for t in lasts])
    cov = np.where(has_last[:, None, None], last, own[:, None])
    return mahalanobis(points[:, None], centers, cov)


def _box_cov(det: Detection) -> Detection:
    """Uniform-box surrogate covariance for a detection that has a box but
    no blob statistics."""
    if det.cov is not None or det.bbox is None:
        return det
    w, h = det.bbox[2], det.bbox[3]
    return Detection(
        frame=det.frame, view=det.view, head=det.head,
        candidates=det.candidates, bbox=det.bbox, confidence=det.confidence,
        centroid=det.head if det.centroid is None else det.centroid,
        cov=np.array([[w * w / 12.0, 0.0], [0.0, h * h / 12.0]]))


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
            dist = gate_matrix(dets, [t.last_detection for t in active],
                               mode)
            cost = np.where(dist <= gate, dist, GATE_SENTINEL)
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
