"""CSV / JSON / PGM serialization for every pipeline stage.

Byte layout of every CSV file:

- '# key: value' comment lines first (tool version, seed, fps, ...), each
  ending in '\\n';
- then the exact header row and the data rows, cells joined by ',' and
  each row ending in '\\r\\n': the bytes csv.writer's default dialect
  writes, as no cell holds a character it quotes;
- a float is repr() of the Python float, so values round-trip bit for
  bit; an int is str(); a flag is 1 or 0; an absent value is an empty
  field.

Readers and writers work a column at a time. A reader takes csv.reader's
rows in blocks, parses each column with Python's int() and float() and
runs each check once per column.
Malformed input is reported as path:line: message, naming the error a
row-by-row reader would meet first: the earliest bad line, and on that
line the first bad field in the reader's order.
"""

from __future__ import annotations

import csv
import json
import math
import re
from itertools import groupby, islice, repeat

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
_CANDIDATE_KEYS = ("c1x", "c1y", "c2x", "c2y", "c3x", "c3y")
_QUOTED = frozenset(',"\r\n')  # csv.writer quotes a cell holding one


class FormatError(ValueError):
    pass


def _cell_text(kind):
    """How a value of type `kind` is written: blank for None, 1/0 for a
    flag, str for an int, repr of the Python float for a float."""
    if kind is type(None):
        return lambda v: ""
    if issubclass(kind, (bool, np.bool_)):
        return lambda v: "1" if v else "0"
    if issubclass(kind, int):
        return int.__repr__
    if issubclass(kind, float):  # numpy's float64 is a float too
        return float.__repr__
    if issubclass(kind, np.integer):
        return lambda v: str(int(v))
    if issubclass(kind, np.floating):
        return lambda v: repr(float(v))
    return str


def _cells(values) -> list[str]:
    """One column's cells. Each type in the column picks its formatter
    once, so a column of one type is formatted by one map(). Only str can
    write a character csv.writer quotes, and such a cell is refused."""
    text = {kind: _cell_text(kind) for kind in set(map(type, values))}
    if len(text) == 1:
        cells = list(map(next(iter(text.values())), values))
    else:
        cells = [text[type(v)](v) for v in values]
    if str in text.values() and not _QUOTED.isdisjoint("".join(cells)):
        cell = next(c for c in cells if not _QUOTED.isdisjoint(c))
        raise FormatError(f"cell {cell!r} would need csv quoting")
    return cells


def _write_columns(path, header, columns, meta: dict | None = None) -> None:
    """Write the comment lines, the header and one row per index of the
    equally long value lists in `columns`."""
    meta = dict(meta or {})
    meta.setdefault("generator", f"stereomot {__version__}")
    cells = list(map(_cells, columns))  # a refused cell leaves no file
    with open(path, "w", newline="") as fh:
        for k, v in meta.items():
            fh.write(f"# {k}: {v}\n")
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


def read_text(path) -> str:
    """The whole file as UTF-8 text; a byte that is not UTF-8 is an error
    at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode()
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text: byte "
                          f"0x{data[e.start]:02x}") from None


def _lines(path, fh):
    """The lines of the open text file `path`; a byte that is not UTF-8 is
    an error at its line."""
    try:
        yield from fh
    except UnicodeDecodeError:
        read_text(path)  # raises at the line of the first bad byte
        raise


def _rows(path, fh):
    """csv.reader's rows of the open file `path`; a row it refuses is an
    error at its line."""
    reader = csv.reader(_lines(path, fh))
    try:
        yield from reader
    except csv.Error as e:
        raise FormatError(f"{path}:{reader.line_num}: {e}") from None


def read_meta(path) -> dict[str, str]:
    """The '# key: value' comment lines at the top of a CSV file."""
    meta = {}
    with open(path, newline="") as fh:
        for line in _lines(path, fh):
            if not line.startswith("#"):
                break
            m = re.match(r"#\s*([^:]+):\s*(.*)", line.strip())
            if m:
                meta[m.group(1).strip()] = m.group(2).strip()
    return meta


def _not_int(key, text) -> str:
    return f"field {key!r} must be an integer, got {text!r}"


def _not_number(key, text) -> str:
    return f"field {key!r} must be a number, got {text!r}"


def _parse_cells(cells, parse, optional: bool) -> list:
    if optional and "" in cells:
        return [None if c == "" else parse(c) for c in cells]
    return list(map(parse, cells))


def _parses(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


def _meta_number(path, meta, key, parse):
    """The '# key:' value through int or float; an error at line 1 unless it
    is a finite number."""
    text = meta[key]
    try:
        value = parse(text)
        if parse is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    message = _not_int if parse is int else _not_number
    raise FormatError(f"{path}:1: {message(key, text)}")


class _Table:
    """A CSV file's data rows as columns of cells, checked column by column.

    A failed check records its first bad row, and later checks look only at
    the rows before it (`n` rows stay in play). So `check()` raises the
    error a row-by-row reader would meet first: the earliest bad line, and
    on that line the first failed check in the order the checks ran.
    """

    def __init__(self, path, header):
        self.path = path
        with open(path, newline="") as fh:
            reader = _rows(path, fh)
            for line_no, row in enumerate(reader, start=1):
                if not row or row[0].startswith("#"):
                    continue
                if tuple(c.strip() for c in row) != tuple(header):
                    raise FormatError(
                        f"{path}:{line_no}: expected header "
                        f"{','.join(header)}, got {','.join(row)}")
                break
            else:
                raise FormatError(f"{path}:1: missing header row")
            # Rows become columns a block at a time, so the garbage
            # collector never holds a whole file of row lists.
            self.lines: list[int] = []  # csv row numbers, blank rows skipped
            columns: list[list[str]] = [[] for _ in header]
            while block := list(islice(reader, 512)):
                self.lines += [n for n, row in enumerate(block, line_no + 1)
                               if row]
                line_no += len(block)
                block = [row for row in block if row]
                if set(map(len, block)) - {len(header)}:
                    i = next(i for i, row in enumerate(block)
                             if len(row) != len(header))
                    raise FormatError(
                        f"{path}:{self.lines[i - len(block)]}: expected "
                        f"{len(header)} fields, got {len(block[i])}")
                for column, cells in zip(columns, zip(*block)):
                    column.extend(cells)
        self.cells = dict(zip(header, columns))
        self.n = len(self.lines)
        self.error: str | None = None

    def fail(self, i: int, message: str) -> None:
        self.n = i
        self.error = f"{self.path}:{self.lines[i]}: {message}"

    def check(self) -> None:
        if self.error is not None:
            raise FormatError(self.error)

    def expect(self, values, ok, message) -> None:
        """Fail at the first row in play whose value fails ok(value);
        message(i) says why."""
        i = next((i for i, v in enumerate(values[:self.n]) if not ok(v)),
                 None)
        if i is not None:
            self.fail(i, message(i))

    def unique(self, keys, message) -> None:
        """Fail at the first row in play whose key an earlier row has;
        message(key) says why."""
        keys = keys[:self.n]
        if len(set(keys)) < len(keys):
            seen: set = set()
            i = next(i for i, k in enumerate(keys) if k in seen or seen.add(k))
            self.fail(i, message(keys[i]))

    def parse(self, key, parse, message, optional=False) -> list:
        """The column through `parse` (None for a blank cell if optional);
        a cell it refuses fails its row."""
        cells = self.cells[key][:self.n]
        try:
            return _parse_cells(cells, parse, optional)
        except ValueError:
            i = next(i for i, c in enumerate(cells)
                     if not (optional and c == "") and not _parses(parse, c))
            self.fail(i, message(key, cells[i]))
            return _parse_cells(cells[:i], parse, optional)

    def ints(self, key, optional=False) -> list:
        """64-bit integers; a larger one fails its row too."""
        values = self.parse(key, int, _not_int, optional)
        present = _present(values)
        if present and not -2**63 <= min(present) <= max(present) < 2**63:
            self.expect(values, lambda v: v is None or -2**63 <= v < 2**63,
                        lambda i: f"field {key!r} must be a 64-bit integer, "
                                  f"got {self.cells[key][i]!r}")
        return values

    def floats(self, key, optional=False) -> list:
        """Finite floats; a non-finite value fails its row too."""
        values = self.parse(key, float, _not_number, optional)
        if not all(map(math.isfinite, _present(values))):
            self.expect(values, lambda v: v is None or math.isfinite(v),
                        lambda i: _not_number(key, self.cells[key][i]))
        return values

    def views(self) -> list:
        views = self.cells["view"][:self.n]
        if not set(views) <= set(VIEWS):
            self.expect(views, VIEWS.__contains__, lambda i: (
                f"view must be 'top' or 'front', got {views[i]!r}"))
        return views

    def box(self, optional=False) -> list[list]:
        """bbox_x..bbox_h as floats; a negative width or height is an
        error."""
        box = [self.floats(k, optional)
               for k in ("bbox_x", "bbox_y", "bbox_w", "bbox_h")]
        for key, size in zip(("bbox_w", "bbox_h"), box[2:]):
            if min(_present(size[:self.n]), default=0) < 0:
                self.expect(size, lambda v: v is None or v >= 0,
                            lambda i, key=key: f"field {key!r} must be >= 0, "
                                               f"got {self.cells[key][i]!r}")
        return box


def _present(values: list) -> list:
    """The values that are not None."""
    return values if None not in values else [v for v in values
                                              if v is not None]


def _cand_columns(dets: list[Detection]) -> list[list]:
    """The c1x..c3y columns: each detection's first three head candidates,
    blank where it has fewer."""
    cands = [d.candidates for d in dets]
    return [[c[k][i] if len(c) > k else None for c in cands]
            for k in range(3) for i in range(2)]


def _fields(items: list, keys) -> list[list]:
    """A column of item[key] per key; blank where an item is None."""
    return [[None if x is None else x[k] for x in items] for k in keys]


def _groups(keys: list):
    """(key, row indices) in key order; each key's rows in file order."""
    return groupby(sorted(range(len(keys)), key=keys.__getitem__),
                   key=keys.__getitem__)


def _candidates(heads: list, cells: list[list]) -> list[tuple]:
    """Each row's head candidates from its c1x..c3y values, the pairs with
    both values present, or its head alone when it has none."""
    slots = [(cx, cy) for cx, cy in zip(cells[::2], cells[1::2])
             if cx.count(None) < len(cx) and cy.count(None) < len(cy)]
    if not slots:
        return [(h,) for h in heads]
    rows = list(zip(*(zip(cx, cy) for cx, cy in slots)))
    if all(None not in cx and None not in cy for cx, cy in slots):
        return rows
    return [tuple(c for c in row if None not in c) or (h,)
            for h, row in zip(heads, rows)]


# ---------------------------------------------------------------------------
# detections


def write_detections_csv(path, detections: dict[str, dict[int, list[Detection]]],
                         meta: dict | None = None) -> None:
    dets = [det for view in VIEWS for f in sorted(detections.get(view, {}))
            for det in detections[view][f]]
    _write_columns(path, DETECTIONS_HEADER, [
        [d.frame for d in dets], [d.view for d in dets],
        [d.head[0] for d in dets], [d.head[1] for d in dets],
        *_fields([d.bbox for d in dets], range(4)),
        [d.confidence for d in dets],
        *_cand_columns(dets)], meta)


def read_detections_csv(path) -> list[tuple[int, Detection]]:
    t = _Table(path, DETECTIONS_HEADER)
    frames = t.ints("frame")
    views = t.views()
    x, y = t.floats("x"), t.floats("y")
    box = t.box(optional=True)
    cands = [t.floats(k, optional=True) for k in _CANDIDATE_KEYS]
    confidence = t.floats("confidence", optional=True)
    t.check()
    heads = list(zip(x, y))
    # Detection's fields in order: frame, view, head, candidates, centroid,
    # cov, bbox, confidence.
    return list(zip(t.lines, map(
        Detection, frames, views, heads, _candidates(heads, cands),
        repeat(None), repeat(None),
        (None if None in b else b for b in zip(*box)), confidence)))


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
    order = sorted(tracklets, key=lambda t: (t.view, t.id))
    dets = [t.detections[f] for t in order for f in t.frames]
    _write_columns(path, TRACKLETS_HEADER, [
        [t.id for t in order for _ in t.frames],
        [t.view for t in order for _ in t.frames],
        [f for t in order for f in t.frames],
        [d.head[0] for d in dets], [d.head[1] for d in dets],
        *_cand_columns(dets),
        *_fields([d.cov for d in dets], ((0, 0), (0, 1), (1, 1)))], meta)


def read_tracklets_csv(path) -> list[Tracklet2D]:
    t = _Table(path, TRACKLETS_HEADER)
    ids = t.ints("tracklet_id")
    views = t.views()
    frames = t.ints("frame")
    t.unique(list(zip(views, ids, frames)), lambda k: (
        f"duplicate row for {k[0]} tracklet {k[1]} at frame {k[2]}"))
    x, y = t.floats("x"), t.floats("y")
    xx, xy, yy = (t.floats(k, optional=True)
                  for k in ("covxx", "covxy", "covyy"))
    cands = [t.floats(k, optional=True) for k in _CANDIDATE_KEYS]
    t.check()
    heads = list(zip(x, y))
    covs = np.array([xx, xy, xy, yy], dtype=float).T.reshape(-1, 2, 2)
    full = (~np.isnan(covs).any(axis=(1, 2))).tolist()  # NaN where blank
    # Fields in order: frame, view, head, candidates, centroid, cov.
    dets = list(map(Detection, frames, views, heads, _candidates(heads, cands),
                    [h if f else None for h, f in zip(heads, full)],
                    [covs[i] if f else None for i, f in enumerate(full)]))
    out = []
    for (view, tid), rows in _groups(list(zip(views, ids))):
        rows = sorted(rows, key=frames.__getitem__)
        out.append(Tracklet2D(
            id=tid, view=view, frames=[frames[i] for i in rows],
            detections={frames[i]: dets[i] for i in rows}))
    return out


# ---------------------------------------------------------------------------
# 3D tracklets


def write_tracklets3d_csv(path, tracklets: list[Tracklet3D],
                          meta: dict | None = None) -> None:
    rows = [(t, f) for t in sorted(tracklets, key=lambda t: t.id)
            for f in t.frames]
    _write_columns(path, TRACKLETS3D_HEADER, [
        [t.id for t, _ in rows], [f for _, f in rows],
        *_fields([t.points.get(f) for t, f in rows], range(3)),
        *_fields([t.sources.get(f) for t, f in rows], range(2))], meta)


def read_tracklets3d_csv(path) -> list[Tracklet3D]:
    t = _Table(path, TRACKLETS3D_HEADER)
    ids = t.ints("tracklet_id")
    frames = t.ints("frame")
    t.unique(list(zip(ids, frames)), lambda k: (
        f"duplicate row for 3D tracklet {k[0]} at frame {k[1]}"))
    xyz = [t.floats(k, optional=True) for k in ("x", "y", "z")]
    sources = [t.ints(k, optional=True)
               for k in ("top_tracklet_id", "front_tracklet_id")]
    t.check()
    points = np.array(xyz, dtype=float).T.copy()
    full = (~np.isnan(points).any(axis=1)).tolist()  # NaN where blank
    sources = list(zip(*sources))
    out = []
    for tid, rows in _groups(ids):
        rows = list(rows)
        out.append(Tracklet3D(
            id=tid, points={frames[i]: points[i] for i in rows if full[i]},
            sources={frames[i]: sources[i] for i in rows}))
    return out


# ---------------------------------------------------------------------------
# final tracks


def write_tracks_csv(path, tracks: list[Track3D],
                     meta: dict | None = None) -> None:
    # Rows by frame, then by fish id (stable for equal ids).
    order = sorted(tracks, key=lambda t: t.fish_id)
    keys = sorted((f, k) for k, t in enumerate(order) for f in t.points)
    _write_columns(path, TRACKS_HEADER, [
        [f for f, _ in keys], [order[k].fish_id for _, k in keys],
        *_fields([order[k].points[f] for f, k in keys], range(3))], meta)


def read_tracks_csv(path) -> list[Track3D]:
    t = _Table(path, TRACKS_HEADER)
    frames = t.ints("frame")
    fish = t.ints("fish_id")
    t.unique(list(zip(frames, fish)), lambda k: (
        f"duplicate row for fish {k[1]} at frame {k[0]}"))
    xyz = [t.floats(k) for k in ("x", "y", "z")]
    t.check()
    points = np.array(xyz, dtype=float).T.copy()
    return [Track3D(fish_id=fid, points={frames[i]: points[i] for i in rows})
            for fid, rows in _groups(fish)]


# ---------------------------------------------------------------------------
# ground-truth annotations


def write_annotations_csv(path, gt: GroundTruth,
                          meta: dict | None = None) -> None:
    meta = dict(meta or {})
    meta.setdefault("fps", _cells([gt.fps])[0])
    meta.setdefault("n_frames", gt.n_frames)
    meta.setdefault("n_fish", gt.n_fish)
    # One row per annotated (frame, fish, view), in that order.
    heads, boxes, occluded = (np.stack([field[view] for view in VIEWS], axis=2)
                              for field in (gt.heads, gt.boxes, gt.occluded))
    f, j, k = np.nonzero(~np.isnan(heads[..., 0]))
    points = gt.points3d[f, j]
    absent = np.isnan(points[:, 0]).tolist()
    ids = gt.fish_ids
    _write_columns(path, ANNOTATIONS_HEADER, [
        f.tolist(), [ids[i] for i in j.tolist()],
        [VIEWS[i] for i in k.tolist()], *boxes[f, j, k].T.tolist(),
        *heads[f, j, k].T.tolist(), occluded[f, j, k].astype(int).tolist(),
        *zip(*((None,) * 3 if a else p
               for a, p in zip(absent, points.tolist())))], meta)


def read_annotations_csv(path) -> GroundTruth:
    meta = read_meta(path)
    if "fps" not in meta:
        raise FormatError(f"{path}:1: missing '# fps:' header line")
    fps = _meta_number(path, meta, "fps", float)
    if fps <= 0:
        raise FormatError(
            f"{path}:1: '# fps:' must be positive, got {meta['fps']!r}")
    t = _Table(path, ANNOTATIONS_HEADER)
    frames = t.ints("frame")
    fish = t.ints("fish_id")
    views = t.views()
    box = t.box()
    heads = [t.floats("head_x"), t.floats("head_y")]
    occluded = t.ints("occluded")
    if not set(occluded) <= {0, 1}:
        t.expect(occluded, (0, 1).__contains__,
                 lambda i: f"occluded must be 0 or 1, got {occluded[i]}")
    coords = [t.floats(k, optional=True) for k in ("x3d", "y3d", "z3d")]
    t.check()
    if "n_frames" in meta:
        n_frames = _meta_number(path, meta, "n_frames", int)
        if n_frames < 0:
            raise FormatError(f"{path}:1: '# n_frames:' must be >= 0, "
                              f"got {n_frames}")
    else:
        n_frames = 1 + max(frames, default=-1)
    try:
        gt = GroundTruth(fps, n_frames, sorted(set(fish)))
    except (MemoryError, ValueError):  # numpy: too large, or too many dims
        raise FormatError(f"{path}:1: '# n_frames: {n_frames}' is too large "
                          f"to allocate") from None
    if frames and not 0 <= min(frames) <= max(frames) < n_frames:
        t.expect(frames, lambda f: 0 <= f < n_frames, lambda i: (
            f"frame {frames[i]} outside [0, n_frames = {n_frames})"))
    t.unique(list(zip(views, frames, fish)), lambda k: (
        f"duplicate row for fish {k[2]} in view {k[0]} at frame {k[1]}"))
    t.check()
    if n_frames == 0:  # so there is no row either
        raise FormatError(f"{path}: the annotations cover no frame")

    f = np.array(frames, dtype=np.intp)
    j = np.searchsorted(gt.fish_ids, fish)
    box = np.array(box, dtype=float).T
    heads = np.array(heads, dtype=float).T
    occluded = np.array(occluded, dtype=bool)
    views = np.array(views, dtype=str)
    for view in VIEWS:
        m = views == view
        gt.boxes[view][f[m], j[m]] = box[m]
        gt.heads[view][f[m], j[m]] = heads[m]
        gt.occluded[view][f[m], j[m]] = occluded[m]
    # A (frame, fish) with 3D coordinates in both views' rows takes the
    # later row's.
    points = np.array(coords, dtype=float).T  # NaN where blank
    rows = np.flatnonzero(~np.isnan(points).any(axis=1))
    _, last = np.unique((f * gt.n_fish + j)[rows][::-1], return_index=True)
    rows = rows[len(rows) - 1 - last]
    gt.points3d[f[rows], j[rows]] = points[rows]
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
    # whitespace and any number of `#` comment lines between the fields
    m = re.match(rb"P5" + rb"\s+(?:#.*\s+)*(\d+)" * 3 + rb"\s", data)
    if not m:
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    w, h, maxval = (int(m.group(i)) for i in (1, 2, 3))
    if w == 0 or h == 0:
        raise FormatError(f"{path}: image is {w}x{h} px, with no pixels")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=m.end())
    if pixels.size != w * h:
        raise FormatError(f"{path}: pixel payload is {pixels.size} bytes, "
                          f"expected {w * h}")
    return pixels.reshape(h, w).copy()
