"""Per-view 2D tracklet construction by gated global assignment.

Each frame's detections are matched to live tracklets with the Hungarian
algorithm on gated distances (L2 on head points, or Mahalanobis on head
points under the blob covariance). There is deliberately no motion model:
unmatched detections start new tracklets and tracklets idle for more than
tau_k frames are terminated, yielding short, conservative fragments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detect import DetectionTable, runs

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
    from scipy.optimize import linear_sum_assignment  # loaded at first use
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
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
    """One view's 2D tracklet: its own rows of a detection table, frames
    strictly ascending."""

    id: int
    view: str
    detections: DetectionTable

    @property
    def frames(self) -> np.ndarray:
        return self.detections.frame

    @property
    def first_frame(self) -> int:
        return int(self.detections.frame[0])

    @property
    def last_frame(self) -> int:
        return int(self.detections.frame[-1])


def gate_matrix(table: DetectionTable, dets, lasts, mode: str) -> np.ndarray:
    """(len(dets), len(lasts)) distances from each detection `dets` (a
    slice of the table's rows) to each live tracklet's last detection
    (`lasts`, row indices).

    Euclidean mode: head to head. Mahalanobis mode: the same, under the
    last detection's covariance, else the new detection's, else the
    identity.
    """
    if mode == EUCLIDEAN_HEAD:
        centers = table.head[lasts].tolist()
        return np.array([[math.hypot(x - cx, y - cy) for cx, cy in centers]
                         for x, y in table.head[dets].tolist()])
    cov = np.where(np.isnan(table.cov[dets]), np.eye(2), table.cov[dets])
    last = table.cov[lasts]
    cov = np.where(np.isnan(last[:, :1, :1]), cov[:, None], last)
    return mahalanobis(table.head[dets][:, None], table.head[lasts], cov)


def _box_cov(table: DetectionTable) -> DetectionTable:
    """The table with the uniform-box surrogate covariance diag(w^2/12,
    h^2/12) on every row that has a box but no blob statistics."""
    w, h = table.bbox[:, 2], table.bbox[:, 3]
    zero = np.where(np.isnan(w), np.nan, 0.0)  # blank where there is no box
    box = np.stack([w * w / 12.0, zero, zero, h * h / 12.0], axis=1)
    table = table[:]
    table.cov = np.where(np.isnan(table.cov), box.reshape(-1, 2, 2), table.cov)
    return table


def build_tracklets(table: DetectionTable, params: Track2DParams,
                    view: str) -> list[Tracklet2D]:
    """Build tracklets for one view from its detection table; their ids
    count from 0 in the order the tracklets start.

    Termination is strict: a tracklet may still receive a detection at
    frame f iff f - last_assigned_frame <= tau_k. In Mahalanobis mode a
    detection with a box but no covariance gets the uniform-box surrogate
    diag(w^2/12, h^2/12), centered on its head.
    """
    gate = params.gate(view)
    mode = params.mode(view)
    if mode == MAHALANOBIS_CENTROID:
        table = _box_cov(table)
    frames = table.frame.tolist()
    rows: list[list[int]] = []  # each tracklet's rows, by id
    active: list[int] = []  # ids of the live tracklets
    for f, a, b in runs(table.frame):
        active = [k for k in active
                  if f - frames[rows[k][-1]] <= params.tau_k]
        assigned = [False] * (b - a)
        if active:
            dist = gate_matrix(table, slice(a, b),
                               [rows[k][-1] for k in active], mode)
            cost = np.where(dist <= gate, dist, GATE_SENTINEL)
            for i, j in hungarian(cost):
                if cost[i, j] <= gate:
                    rows[active[j]].append(a + i)
                    assigned[i] = True
        for i in range(b - a):
            if not assigned[i]:
                active.append(len(rows))
                rows.append([a + i])
    return [Tracklet2D(id=k, view=view, detections=table[r])
            for k, r in enumerate(rows)]
