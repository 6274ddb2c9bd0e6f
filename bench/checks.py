"""Output checks, each against a computation the benchmark makes itself.

The checks read the files the stages wrote with the standard library and
numpy only, never through `stereomot.formats`, so a fault in a reader
cannot hide a fault in a writer; only the scene's settings (gate, tank,
degradation) come from `PipelineConfig`. Each check returns the stage whose
output it judged and a message for every failure; an empty list means
the outputs hold.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

VIEWS = ("top", "front")
# Pixel tolerance of the head projection check; heads are written with
# repr(), so the only slack needed is float rounding of the projection.
PROJECTION_TOL_PX = 1e-6
# frames_detect floors (see README): share of detections that fall inside
# a ground-truth box, and share of ground-truth boxes holding a detection.
DETECT_PRECISION_FLOOR = 0.9
DETECT_RECALL_FLOOR = 0.9


def read_csv(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """(comment metadata, rows as column dicts) of a stereomot CSV file."""
    meta, lines = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            else:
                lines.append(line)
    reader = csv.DictReader(lines)
    return meta, list(reader)


class Annotations:
    """annotations.csv as dense arrays indexed [view, frame, fish]."""

    def __init__(self, path: Path):
        meta, rows = read_csv(path)
        self.fps = float(meta["fps"])
        self.n_frames = int(meta["n_frames"])
        self.n_fish = int(meta["n_fish"])
        shape = (2, self.n_frames, self.n_fish)
        if len(rows) != 2 * self.n_frames * self.n_fish:
            raise ValueError(f"{path}: {len(rows)} rows for "
                             f"{self.n_frames} frames x {self.n_fish} fish")
        self.bbox = np.full(shape + (4,), np.nan)
        self.head = np.full(shape + (2,), np.nan)
        self.occluded = np.zeros(shape, dtype=bool)
        self.point = np.full(shape + (3,), np.nan)
        for r in rows:
            key = (VIEWS.index(r["view"]), int(r["frame"]), int(r["fish_id"]) - 1)
            self.bbox[key] = [float(r[k]) for k in
                              ("bbox_x", "bbox_y", "bbox_w", "bbox_h")]
            self.head[key] = [float(r["head_x"]), float(r["head_y"])]
            self.occluded[key] = r["occluded"] == "1"
            self.point[key] = [float(r[k]) for k in ("x3d", "y3d", "z3d")]
        if np.isnan(self.bbox).any() or np.isnan(self.point).any():
            raise ValueError(f"{path}: missing (frame, fish, view) rows")


def _overlap_px(box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise (ix, iy) of boxes [..., fish, 4] -> [..., fish, fish]."""
    x0, y0 = box[..., 0], box[..., 1]
    x1, y1 = x0 + box[..., 2], y0 + box[..., 3]
    ix = (np.minimum(x1[..., :, None], x1[..., None, :])
          - np.maximum(x0[..., :, None], x0[..., None, :]))
    iy = (np.minimum(y1[..., :, None], y1[..., None, :])
          - np.maximum(y0[..., :, None], y0[..., None, :]))
    return ix, iy


def check_annotations(scene: Path) -> list[tuple[str, str]]:
    """Heads are the pinhole projection of the 3D point through
    calibration.json; `occluded` is the box-overlap test."""
    gt = Annotations(scene / "annotations.csv")
    cams = {c["view_id"]: c for c in
            json.loads((scene / "calibration.json").read_text())["cameras"]}
    fails = []
    for v, view in enumerate(VIEWS):
        cam = cams[view]
        R = np.asarray(cam["rotation"], dtype=float)
        t = np.asarray(cam["translation"], dtype=float)
        xc = gt.point[v] @ R.T + t
        u = cam["fx"] * xc[..., 0] / xc[..., 2] + cam["cx"]
        w = cam["fy"] * xc[..., 1] / xc[..., 2] + cam["cy"]
        err = np.max(np.abs(np.stack([u, w], axis=-1) - gt.head[v]))
        if not err <= PROJECTION_TOL_PX:
            fails.append(("simulate", f"{view} heads are off the projection "
                          f"of their 3D points by up to {err:.3g} px"))
        ix, iy = _overlap_px(gt.bbox[v])
        touching = (ix > 0) & (iy > 0)
        touching &= ~np.eye(gt.n_fish, dtype=bool)
        expected = touching.any(axis=-1)
        wrong = int(np.sum(expected != gt.occluded[v]))
        if wrong:
            fails.append(("simulate", f"{wrong} {view} occlusion flags "
                          "disagree with the box-overlap test"))
    return fails


def complexity_reference(gt: Annotations) -> dict:
    """Per-view OC, OL, TBO, IBO and psi, computed from the arrays."""
    duration = gt.n_frames / gt.fps
    out = {}
    psi = 0.0
    for v, view in enumerate(VIEWS):
        flags = gt.occluded[v].T.astype(np.int8)       # [fish, frame]
        padded = np.pad(flags, ((0, 0), (1, 1)))
        step = np.diff(padded, axis=1)
        events, gaps = [], []
        for fish in range(gt.n_fish):
            starts = np.flatnonzero(step[fish] == 1)
            ends = np.flatnonzero(step[fish] == -1) - 1
            events.extend(ends - starts + 1)
            if len(starts) == 0:
                gaps.append(gt.n_frames)
                continue
            gaps.append(starts[0])
            gaps.extend(starts[1:] - ends[:-1] - 1)
            gaps.append(gt.n_frames - 1 - ends[-1])
        oc = len(events) / duration
        ol = float(np.mean(events)) / gt.fps if events else 0.0
        tbo = float(np.mean(gaps)) / gt.fps if gaps else 0.0

        box = gt.bbox[v]
        ix, iy = _overlap_px(box)
        inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
        occ = gt.occluded[v]
        inter = inter * (occ[:, :, None] & occ[:, None, :])
        inter[:, np.arange(gt.n_fish), np.arange(gt.n_fish)] = 0.0
        area = box[..., 2] * box[..., 3]
        use = occ & (area > 0)
        ratios = inter.sum(axis=-1)[use] / area[use]
        ibo = float(np.mean(ratios)) if ratios.size else 0.0
        out[view] = {"oc": oc, "ol": ol, "tbo": tbo, "ibo": ibo}
        num = oc * ol * ibo
        if num != 0.0:
            psi = math.inf if tbo == 0.0 else psi + num / tbo
    out["psi"] = 0.5 * psi
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_complexity(scene: Path, out: Path) -> list[tuple[str, str]]:
    """complexity.json equals the benchmark's own computation."""
    ref = complexity_reference(Annotations(scene / "annotations.csv"))
    got = json.loads((out / "complexity.json").read_text())
    fails = []
    if not _close(got["psi"], ref["psi"]):
        fails.append(("complexity", f"psi {got['psi']!r} != {ref['psi']!r}"))
    for view in VIEWS:
        for key, value in ref[view].items():
            if not _close(got[view][key], value):
                fails.append(("complexity", f"{view}.{key} "
                              f"{got[view][key]!r} != {value!r}"))
    return fails


def _tracks(out: Path) -> dict[int, list[tuple[int, np.ndarray]]]:
    """tracks.csv as frame -> [(fish_id, point)]."""
    _, rows = read_csv(out / "tracks.csv")
    by_frame: dict[int, list[tuple[int, np.ndarray]]] = {}
    for r in rows:
        by_frame.setdefault(int(r["frame"]), []).append(
            (int(r["fish_id"]),
             np.array([float(r["x"]), float(r["y"]), float(r["z"])])))
    return by_frame


def assignment_bound(gt: Annotations, tracks: dict, gate: float) -> int:
    """Most (annotated point, predicted point) pairs within `gate` that a
    per-frame one-to-one assignment can make: an upper bound on matches."""
    total = 0
    points = gt.point[0]                       # [frame, fish, 3]
    for f, items in tracks.items():
        if not 0 <= f < gt.n_frames:
            continue
        pred = np.stack([p for _, p in items])
        d = np.linalg.norm(points[f][:, None, :] - pred[None, :, :], axis=-1)
        within = d <= gate
        rows, cols = linear_sum_assignment((~within).astype(float))
        total += int(within[rows, cols].sum())
    return total


def check_tracking(scene: Path, out: Path) -> list[tuple[str, str]]:
    """report.json against tracks.csv and annotations.csv; the stitched
    tracks themselves; and, for exact (undegraded) detections, a perfect
    score."""
    from stereomot.config import PipelineConfig

    cfg = PipelineConfig.from_file(scene / "config.txt")
    model = cfg.degrade_model()
    exact = not (model.drop_rate or model.jitter_px or model.ghost_rate)
    gt = Annotations(scene / "annotations.csv")
    tracks = _tracks(out)
    report = json.loads((out / "report.json").read_text())
    fails = []
    n_pred = sum(len(items) for items in tracks.values())
    m = report["n_matches"]
    gt_total = gt.n_frames * gt.n_fish
    if report["gt_total"] != gt_total:
        fails.append(("evaluate", f"gt_total {report['gt_total']} != "
                      f"{gt_total} annotated points"))
    if report["fp"] != n_pred - m:
        fails.append(("evaluate", f"fp {report['fp']} != {n_pred} predicted "
                      f"points - {m} matches"))
    if report["fn"] != gt_total - m:
        fails.append(("evaluate", f"fn {report['fn']} != {gt_total} - {m}"))
    mota = 100.0 * (1.0 - (report["fn"] + report["fp"] + report["idsw"])
                    / report["gt_total"])
    if not _close(report["mota"], mota):
        fails.append(("evaluate", f"mota {report['mota']!r} != {mota!r}"))
    bound = assignment_bound(gt, tracks, cfg.get("eval.dist_3d"))
    if m > bound:
        fails.append(("evaluate", f"{m} matches exceed the per-frame "
                      f"assignment bound {bound}"))
    if exact and not m == bound == gt_total:
        fails.append(("evaluate", f"exact detections: {m} matches, bound "
                      f"{bound}, {gt_total} annotated points"))

    ids = {fid for items in tracks.values() for fid, _ in items}
    if len(ids) != gt.n_fish:
        fails.append(("stitch", f"{len(ids)} tracks for {gt.n_fish} fish"))
    if report["n_pred_tracks"] != len(ids):
        fails.append(("evaluate", f"n_pred_tracks {report['n_pred_tracks']} "
                      f"!= {len(ids)} tracks in tracks.csv"))
    tank = cfg.tank()
    outside = sum(1 for items in tracks.values() for _, p in items
                  if not (np.all(p >= tank.mins) and np.all(p <= tank.maxs)))
    if outside:
        fails.append(("stitch", f"{outside} track points outside the tank"))
    return fails + check_complexity(scene, out)


def detection_shares(scene: Path, out: Path) -> tuple[float, float]:
    """(share of detections inside a ground-truth box of their frame and
    view, share of ground-truth boxes holding at least one detection)."""
    gt = Annotations(scene / "annotations.csv")
    _, rows = read_csv(out / "detections.csv")
    inside = 0
    held = np.zeros(gt.occluded.shape, dtype=bool)
    for r in rows:
        v, f = VIEWS.index(r["view"]), int(r["frame"])
        x, y = float(r["x"]), float(r["y"])
        box = gt.bbox[v, f]
        hit = ((box[:, 0] <= x) & (x <= box[:, 0] + box[:, 2])
               & (box[:, 1] <= y) & (y <= box[:, 1] + box[:, 3]))
        inside += bool(hit.any())
        held[v, f] |= hit
    precision = inside / len(rows) if rows else 0.0
    return precision, float(held.mean())


def check_detections(scene: Path, out: Path) -> list[tuple[str, str]]:
    precision, recall = detection_shares(scene, out)
    fails = []
    if not precision >= DETECT_PRECISION_FLOOR:
        fails.append(("detect", f"{precision:.3f} of detections inside a "
                      f"box, floor {DETECT_PRECISION_FLOOR}"))
    if not recall >= DETECT_RECALL_FLOOR:
        fails.append(("detect", f"{recall:.3f} of boxes hold a detection, "
                      f"floor {DETECT_RECALL_FLOOR}"))
    return fails
