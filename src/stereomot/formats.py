"""CSV / JSON / PGM serialization for every pipeline stage.

All CSV files start with '# key: value' comment lines (tool version, seed,
fps, ...) followed by an exact header row. Floats are written with repr()
so values round-trip bit-for-bit; empty fields mean "absent". Malformed
input is reported as path:line: message.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from . import __version__
from .crossview import Tracklet3D
from .detect import Detection
from .geometry import VIEWS
from .metrics import EvalReport, GroundTruth
from .track2d import Tracklet2D
from .track3d import Track3D

REPORT_SCHEMA_VERSION = 1

DETECTIONS_HEADER = ("frame", "view", "x", "y", "bbox_x", "bbox_y", "bbox_w",
                     "bbox_h", "confidence", "c1x", "c1y", "c2x", "c2y",
                     "c3x", "c3y")
TRACKLETS_HEADER = ("tracklet_id", "view", "frame", "x", "y", "c1x", "c1y",
                    "c2x", "c2y", "c3x", "c3y", "covxx", "covxy", "covyy")
TRACKLETS3D_HEADER = ("tracklet_id", "frame", "x", "y", "z",
                      "top_tracklet_id", "front_tracklet_id")
TRACKS_HEADER = ("frame", "fish_id", "x", "y", "z")
ANNOTATIONS_HEADER = ("frame", "fish_id", "view", "bbox_x", "bbox_y",
                      "bbox_w", "bbox_h", "head_x", "head_y", "occluded",
                      "x3d", "y3d", "z3d")


class FormatError(ValueError):
    pass


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_rows(path, header, rows, meta: dict | None = None) -> None:
    meta = dict(meta or {})
    meta.setdefault("generator", f"stereomot {__version__}")
    with open(path, "w", newline="") as fh:
        for k, v in meta.items():
            fh.write(f"# {k}: {v}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_meta(path) -> dict[str, str]:
    """The '# key: value' comment lines at the top of a CSV file."""
    meta = {}
    with open(path, newline="") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            m = re.match(r"#\s*([^:]+):\s*(.*)", line.strip())
            if m:
                meta[m.group(1).strip()] = m.group(2).strip()
    return meta


def _read_rows(path, header) -> list[tuple[int, dict[str, str]]]:
    """Data rows as (line_no, column dict); validates the header exactly."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        expected = None
        for line_no, row in enumerate(reader, start=1):
            if not row or (row[0].startswith("#") and expected is None):
                continue
            if expected is None:
                if tuple(c.strip() for c in row) != tuple(header):
                    raise FormatError(
                        f"{path}:{line_no}: expected header "
                        f"{','.join(header)}, got {','.join(row)}")
                expected = len(header)
                continue
            if len(row) != expected:
                raise FormatError(
                    f"{path}:{line_no}: expected {expected} fields, "
                    f"got {len(row)}")
            out.append((line_no, dict(zip(header, row))))
    if expected is None:
        raise FormatError(f"{path}:1: missing header row")
    return out


def _req_int(path, line_no, row, key) -> int:
    try:
        return int(row[key])
    except ValueError:
        raise FormatError(
            f"{path}:{line_no}: field {key!r} must be an integer, "
            f"got {row[key]!r}") from None


def _req_float(path, line_no, row, key) -> float:
    try:
        value = float(row[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(
            f"{path}:{line_no}: field {key!r} must be a number, "
            f"got {row[key]!r}")
    return value


def _opt_float(path, line_no, row, key) -> float | None:
    if row[key] == "":
        return None
    return _req_float(path, line_no, row, key)


def _opt_int(path, line_no, row, key) -> int | None:
    if row[key] == "":
        return None
    return _req_int(path, line_no, row, key)


def _read_bbox(path, line_no, row, parse) -> list:
    """bbox_x..bbox_h through `parse`; a negative width or height is an
    error."""
    box = [parse(path, line_no, row, k)
           for k in ("bbox_x", "bbox_y", "bbox_w", "bbox_h")]
    for key, size in zip(("bbox_w", "bbox_h"), box[2:]):
        if size is not None and size < 0:
            raise FormatError(f"{path}:{line_no}: field {key!r} must be "
                              f">= 0, got {row[key]!r}")
    return box


def _req_view(path, line_no, row) -> str:
    view = row["view"]
    if view not in VIEWS:
        raise FormatError(
            f"{path}:{line_no}: view must be 'top' or 'front', got {view!r}")
    return view


def _cand_cells(det: Detection) -> list:
    """The c1x..c3y cells: up to three head candidates, blank when absent."""
    cells = [v for c in det.candidates[:3] for v in c]
    return cells + [None] * (6 - len(cells))


def _read_cands(path, line_no, row, head) -> tuple:
    """Head candidates from the c1x..c3y cells; the head alone when none."""
    cands = []
    for i in (1, 2, 3):
        cx = _opt_float(path, line_no, row, f"c{i}x")
        cy = _opt_float(path, line_no, row, f"c{i}y")
        if cx is not None and cy is not None:
            cands.append((cx, cy))
    return tuple(cands) if cands else (head,)


# ---------------------------------------------------------------------------
# detections


def write_detections_csv(path, detections: dict[str, dict[int, list[Detection]]],
                         meta: dict | None = None) -> None:
    rows = []
    for view in VIEWS:
        for f in sorted(detections.get(view, {})):
            for det in detections[view][f]:
                row = [det.frame, det.view, det.head[0], det.head[1]]
                row += list(det.bbox) if det.bbox is not None else [None] * 4
                row.append(det.confidence)
                rows.append(row + _cand_cells(det))
    _write_rows(path, DETECTIONS_HEADER, rows, meta)


def read_detections_csv(path) -> list[tuple[int, Detection]]:
    out = []
    for line_no, row in _read_rows(path, DETECTIONS_HEADER):
        frame = _req_int(path, line_no, row, "frame")
        view = _req_view(path, line_no, row)
        head = (_req_float(path, line_no, row, "x"),
                _req_float(path, line_no, row, "y"))
        box = _read_bbox(path, line_no, row, _opt_float)
        bbox = tuple(box) if None not in box else None
        out.append((line_no, Detection(
            frame=frame, view=view, head=head,
            candidates=_read_cands(path, line_no, row, head), bbox=bbox,
            confidence=_opt_float(path, line_no, row, "confidence"))))
    return out


def group_detections(rows: list[tuple[int, Detection]]
                     ) -> dict[str, dict[int, list[Detection]]]:
    out: dict[str, dict[int, list[Detection]]] = {v: {} for v in VIEWS}
    for _, det in rows:
        out[det.view].setdefault(det.frame, []).append(det)
    return out


# ---------------------------------------------------------------------------
# 2D tracklets


def write_tracklets_csv(path, tracklets: list[Tracklet2D],
                        meta: dict | None = None) -> None:
    rows = []
    for t in sorted(tracklets, key=lambda t: (t.view, t.id)):
        for f in t.frames:
            det = t.detections[f]
            row = [t.id, t.view, f, det.head[0], det.head[1],
                   *_cand_cells(det)]
            if det.cov is not None:
                cov = np.asarray(det.cov)
                row += [cov[0, 0], cov[0, 1], cov[1, 1]]
            else:
                row += [None, None, None]
            rows.append(row)
    _write_rows(path, TRACKLETS_HEADER, rows, meta)


def read_tracklets_csv(path) -> list[Tracklet2D]:
    staged: dict[tuple[str, int], dict[int, Detection]] = {}
    for line_no, row in _read_rows(path, TRACKLETS_HEADER):
        tid = _req_int(path, line_no, row, "tracklet_id")
        view = _req_view(path, line_no, row)
        frame = _req_int(path, line_no, row, "frame")
        dets = staged.setdefault((view, tid), {})
        if frame in dets:
            raise FormatError(
                f"{path}:{line_no}: duplicate row for {view} tracklet {tid} "
                f"at frame {frame}")
        head = (_req_float(path, line_no, row, "x"),
                _req_float(path, line_no, row, "y"))
        cov_vals = [_opt_float(path, line_no, row, k)
                    for k in ("covxx", "covxy", "covyy")]
        cov = None
        if all(v is not None for v in cov_vals):
            cov = np.array([[cov_vals[0], cov_vals[1]],
                            [cov_vals[1], cov_vals[2]]])
        dets[frame] = Detection(
            frame=frame, view=view, head=head,
            candidates=_read_cands(path, line_no, row, head),
            centroid=head if cov is not None else None, cov=cov)
    out = []
    for (view, tid), dets in sorted(staged.items()):
        t = Tracklet2D(id=tid, view=view)
        for frame in sorted(dets):
            t.append(frame, dets[frame])
        out.append(t)
    return out


# ---------------------------------------------------------------------------
# 3D tracklets


def write_tracklets3d_csv(path, tracklets: list[Tracklet3D],
                          meta: dict | None = None) -> None:
    rows = []
    for t in sorted(tracklets, key=lambda t: t.id):
        for f in t.frames:
            p = t.points.get(f)
            top_id, front_id = t.sources.get(f, (None, None))
            rows.append([t.id, f,
                         p[0] if p is not None else None,
                         p[1] if p is not None else None,
                         p[2] if p is not None else None,
                         top_id, front_id])
    _write_rows(path, TRACKLETS3D_HEADER, rows, meta)


def read_tracklets3d_csv(path) -> list[Tracklet3D]:
    staged: dict[int, Tracklet3D] = {}
    for line_no, row in _read_rows(path, TRACKLETS3D_HEADER):
        tid = _req_int(path, line_no, row, "tracklet_id")
        frame = _req_int(path, line_no, row, "frame")
        coords = [_opt_float(path, line_no, row, k) for k in ("x", "y", "z")]
        t = staged.setdefault(tid, Tracklet3D(id=tid))
        if all(c is not None for c in coords):
            t.points[frame] = np.array(coords)
        t.sources[frame] = (_opt_int(path, line_no, row, "top_tracklet_id"),
                            _opt_int(path, line_no, row, "front_tracklet_id"))
    return [staged[tid] for tid in sorted(staged)]


# ---------------------------------------------------------------------------
# final tracks


def write_tracks_csv(path, tracks: list[Track3D],
                     meta: dict | None = None) -> None:
    rows = []
    for f in sorted({f for t in tracks for f in t.points}):
        for t in sorted(tracks, key=lambda t: t.fish_id):
            if f in t.points:
                p = t.points[f]
                rows.append([f, t.fish_id, p[0], p[1], p[2]])
    _write_rows(path, TRACKS_HEADER, rows, meta)


def read_tracks_csv(path) -> list[Track3D]:
    staged: dict[int, Track3D] = {}
    for line_no, row in _read_rows(path, TRACKS_HEADER):
        frame = _req_int(path, line_no, row, "frame")
        fish = _req_int(path, line_no, row, "fish_id")
        p = np.array([_req_float(path, line_no, row, k) for k in "xyz"])
        staged.setdefault(fish, Track3D(fish_id=fish)).points[frame] = p
    return [staged[fid] for fid in sorted(staged)]


# ---------------------------------------------------------------------------
# ground-truth annotations


def write_annotations_csv(path, gt: GroundTruth,
                          meta: dict | None = None) -> None:
    meta = dict(meta or {})
    meta.setdefault("fps", _fmt(gt.fps))
    meta.setdefault("n_frames", gt.n_frames)
    meta.setdefault("n_fish", gt.n_fish)
    points = [[[None] * 3 if math.isnan(p[0]) else p for p in row]
              for row in gt.points3d.tolist()]
    views = [(v, gt.boxes[v].tolist(), gt.heads[v].tolist(),
              gt.occluded[v].tolist()) for v in VIEWS]
    rows = []
    ids = gt.fish_ids
    for f in range(gt.n_frames):
        for j, i in enumerate(ids):
            for view, boxes, heads, occluded in views:
                if not math.isnan(heads[f][j][0]):
                    rows.append([f, i, view, *boxes[f][j], *heads[f][j],
                                 occluded[f][j], *points[f][j]])
    _write_rows(path, ANNOTATIONS_HEADER, rows, meta)


def read_annotations_csv(path) -> GroundTruth:
    meta = read_meta(path)
    if "fps" not in meta:
        raise FormatError(f"{path}:1: missing '# fps:' header line")
    fps = _req_float(path, 1, meta, "fps")
    if fps <= 0:
        raise FormatError(
            f"{path}:1: '# fps:' must be positive, got {meta['fps']!r}")
    rows = []
    for line_no, row in _read_rows(path, ANNOTATIONS_HEADER):
        frame = _req_int(path, line_no, row, "frame")
        fish = _req_int(path, line_no, row, "fish_id")
        view = _req_view(path, line_no, row)
        bbox = _read_bbox(path, line_no, row, _req_float)
        head = [_req_float(path, line_no, row, k) for k in ("head_x", "head_y")]
        occluded = _req_int(path, line_no, row, "occluded")
        if occluded not in (0, 1):
            raise FormatError(
                f"{path}:{line_no}: occluded must be 0 or 1, got {occluded}")
        coords = [_opt_float(path, line_no, row, k)
                  for k in ("x3d", "y3d", "z3d")]
        rows.append((line_no, frame, fish, view, bbox, head, occluded, coords))
    if "n_frames" in meta:
        n_frames = _req_int(path, 1, meta, "n_frames")
        if n_frames < 0:
            raise FormatError(f"{path}:1: '# n_frames:' must be >= 0, "
                              f"got {n_frames}")
    else:
        n_frames = 1 + max((r[1] for r in rows), default=-1)
    try:
        gt = GroundTruth(fps, n_frames, sorted({r[2] for r in rows}))
    except (MemoryError, ValueError):  # numpy: too large, or too many dims
        raise FormatError(f"{path}:1: '# n_frames: {n_frames}' is too large "
                          f"to allocate") from None
    column = {i: j for j, i in enumerate(gt.fish_ids)}
    for line_no, frame, fish, view, bbox, head, occluded, coords in rows:
        if not 0 <= frame < n_frames:
            raise FormatError(f"{path}:{line_no}: frame {frame} outside "
                              f"[0, n_frames = {n_frames})")
        j = column[fish]
        if not np.isnan(gt.heads[view][frame, j, 0]):
            raise FormatError(f"{path}:{line_no}: duplicate row for fish "
                              f"{fish} in view {view} at frame {frame}")
        gt.boxes[view][frame, j] = bbox
        gt.heads[view][frame, j] = head
        gt.occluded[view][frame, j] = occluded
        if None not in coords:
            gt.points3d[frame, j] = coords
    return gt


# ---------------------------------------------------------------------------
# evaluation / complexity reports


def write_report_json(path, payload: dict, meta: dict | None = None) -> None:
    doc = {"schema_version": REPORT_SCHEMA_VERSION,
           "generator": f"stereomot {__version__}"}
    doc.update(meta or {})
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_report_table(report: EvalReport) -> str:
    rows = [
        ("MOTA", f"{report.mota:.3f}"),
        ("MOTP", f"{report.motp:.6f}"),
        ("Precision", f"{report.precision:.3f}"),
        ("Recall", f"{report.recall:.3f}"),
        ("ID-Precision", f"{report.id_precision:.3f}"),
        ("ID-Recall", f"{report.id_recall:.3f}"),
        ("ID-F1", f"{report.id_f1:.3f}"),
        ("FP", str(report.fp)),
        ("FN", str(report.fn)),
        ("IDSW", str(report.idsw)),
        ("Frag", str(report.frag)),
        ("MT", str(report.mt)),
        ("ML", str(report.ml)),
        ("MTBF_s", f"{report.mtbf_strict:.3f}"),
        ("MTBF_m", f"{report.mtbf_monotone:.3f}"),
        ("GT total", str(report.gt_total)),
        ("Matches", str(report.n_matches)),
        ("GT tracks", str(report.n_gt_tracks)),
        ("Pred tracks", str(report.n_pred_tracks)),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def format_complexity_table(report) -> str:
    rows = [("", "OC", "OL", "TBO", "IBO")]
    for view in VIEWS:
        s = getattr(report, view)
        rows.append((view, f"{s.oc:.4f}", f"{s.ol:.4f}",
                     f"{s.tbo:.4f}", f"{s.ibo:.4f}"))
    lines = ["  ".join(f"{c:>8}" for c in row) for row in rows]
    lines.append(f"psi = {report.psi:.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# PGM images (binary, P5)


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.dtype != np.uint8 or img.ndim != 2:
        raise FormatError("write_pgm needs a 2D uint8 array")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    m = re.match(rb"P5\s+(?:#.*\s+)?(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m:
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    w, h, maxval = (int(m.group(i)) for i in (1, 2, 3))
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    pixels = np.frombuffer(data[m.end():], dtype=np.uint8)
    if pixels.size != w * h:
        raise FormatError(f"{path}: pixel payload is {pixels.size} bytes, "
                          f"expected {w * h}")
    return pixels.reshape(h, w).copy()
