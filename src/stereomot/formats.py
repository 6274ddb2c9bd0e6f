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

Readers and writers work a column at a time. Each file's columns are
declared once, as {column: kind} in header order. A reader takes 512 rows
at a time, parses and checks each column of the block, and drops the
block's text before it reads the next; no block after a bad one is read.
A writer formats 512 rows at a time the same way.
Malformed input is reported as path:line: message, naming the error a
row-by-row reader would meet first: the earliest bad line, a bad '# key:'
line counting as line 1, and on that line its fields in header order,
then the line's duplicate or out-of-range key.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import suppress
from functools import partial
from itertools import islice, repeat
from operator import is_not
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .crossview import Tracklet3D
from .detect import DetectionTable, runs
from .geometry import VIEWS
from .metrics import EvalReport, GroundTruth
from .track2d import Tracklet2D
from .track3d import Track3D

REPORT_SCHEMA_VERSION = 1
# The most bytes a '# n_frames:' line may ask of a one-fish GroundTruth: a
# larger count is refused at line 1, before any row is read.
_MAX_GT_BYTES = 1 << 30

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
    """One column's cells. A numeric array's floats are repr of the Python
    float, blank where NaN. In a list each type picks its formatter once,
    so a column of one type is formatted by one map(). Only str can write
    a character csv.writer quotes, and such a cell is refused."""
    if isinstance(values, np.ndarray):
        cells = list(map(float.__repr__ if values.dtype.kind == "f"
                         else int.__repr__, values.tolist()))
        for i in np.flatnonzero(np.isnan(values)).tolist():
            cells[i] = ""
        return cells
    text = {kind: _cell_text(kind) for kind in set(map(type, values))}
    if len(text) == 1:
        cells = list(map(next(iter(text.values())), values))
    else:
        cells = [text[type(v)](v) for v in values]
    if str in text.values() and not _QUOTED.isdisjoint("".join(cells)):
        cell = next(c for c in cells if not _QUOTED.isdisjoint(c))
        raise FormatError(f"cell {cell!r} would need csv quoting")
    return cells


def _write_columns(path, header, parts, meta: dict | None = None) -> None:
    """Write the comment lines, the header and the rows of each part: a
    list of equally long columns, one per header key, numeric ones as
    arrays. Lists holding str are checked first: a refused cell leaves no
    file."""
    meta = dict(meta or {})
    meta.setdefault("generator", f"stereomot {__version__}")
    for values in (c for columns in parts for c in columns):
        if not isinstance(values, np.ndarray) and str in map(
                _cell_text, set(map(type, values))):
            _cells(values)
    with open(path, "w", newline="") as fh:
        for k, v in meta.items():
            fh.write(f"# {k}: {v}\n")
        fh.write(",".join(header) + "\r\n")
        for columns in parts:
            for i in range(0, len(columns[0]), _BLOCK):
                cells = [_cells(c[i:i + _BLOCK]) for c in columns]
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


_NOT_INT = "field {k!r} must be an integer, got {c!r}"
_NOT_NUMBER = "field {k!r} must be a number, got {c!r}"


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
    message = _NOT_INT if parse is int else _NOT_NUMBER
    raise FormatError(f"{path}:1: {message.format(k=key, c=text)}")


class _Kind(NamedTuple):
    """How a column's cells read: through `parse` (a refused cell gets
    message `bad`), then each (ok, message) of `checks`, formatted with the
    column k, cell c and value v. With `blank`, "" reads as None, unchecked."""
    parse: Callable
    bad: str
    checks: tuple
    blank: bool = False


_INT = _Kind(int, _NOT_INT, ((range(-2**63, 2**63).__contains__,
                              "field {k!r} must be a 64-bit integer, "
                              "got {c!r}"),))
_FLOAT = _Kind(float, _NOT_NUMBER, ((math.isfinite, _NOT_NUMBER),))
_SIZE = _FLOAT._replace(checks=(*_FLOAT.checks, (
    (0.0).__le__, "field {k!r} must be >= 0, got {c!r}")))
_VIEW = _Kind(str, "", ((frozenset(VIEWS).__contains__,
                         "view must be 'top' or 'front', got {c!r}"),))
_FLAG = _INT._replace(checks=(*_INT.checks, (
    frozenset((0, 1)).__contains__, "{k} must be 0 or 1, got {v}")))
# The same kinds, a blank cell allowed.
_OPT_INT, _OPT_FLOAT, _OPT_SIZE = (
    k._replace(blank=True) for k in (_INT, _FLOAT, _SIZE))

# Each file's columns in header order, with the kind of each.
_CANDIDATES = dict.fromkeys(("c1x", "c1y", "c2x", "c2y", "c3x", "c3y"),
                            _OPT_FLOAT)
_BOX = ("bbox_x", "bbox_y", "bbox_w", "bbox_h")
_DETECTIONS = {"frame": _INT, "view": _VIEW, "x": _FLOAT, "y": _FLOAT,
               "bbox_x": _OPT_FLOAT, "bbox_y": _OPT_FLOAT,
               "bbox_w": _OPT_SIZE, "bbox_h": _OPT_SIZE,
               "confidence": _OPT_FLOAT, **_CANDIDATES}
# An external detector's rows: each has its box and its confidence.
_EXTERNAL_DETECTIONS = {**_DETECTIONS, "bbox_x": _FLOAT, "bbox_y": _FLOAT,
                        "bbox_w": _SIZE, "bbox_h": _SIZE, "confidence": _FLOAT}
_TRACKLETS = {"tracklet_id": _INT, "view": _VIEW, "frame": _INT, "x": _FLOAT,
              "y": _FLOAT, **_CANDIDATES,
              **dict.fromkeys(("covxx", "covxy", "covyy"), _OPT_FLOAT)}
_TRACKLETS3D = {"tracklet_id": _INT, "frame": _INT,
                **dict.fromkeys("xyz", _OPT_FLOAT),
                "top_tracklet_id": _OPT_INT, "front_tracklet_id": _OPT_INT}
_TRACKS = {"frame": _INT, "fish_id": _INT, **dict.fromkeys("xyz", _FLOAT)}
_ANNOTATIONS = {"frame": _INT, "fish_id": _INT, "view": _VIEW,
                "bbox_x": _FLOAT, "bbox_y": _FLOAT, "bbox_w": _SIZE,
                "bbox_h": _SIZE, "head_x": _FLOAT, "head_y": _FLOAT,
                "occluded": _FLAG,
                **dict.fromkeys(("x3d", "y3d", "z3d"), _OPT_FLOAT)}
_BLOCK = 512  # data rows a reader holds as text at a time


class _Table:
    """A CSV file's data rows read against its column declaration.

    Iterating yields each block of rows as {column: values}, and then the
    reader runs its row checks on it. A failed check records its row, and
    later checks see only the rows before it (`n` rows stay in play). Asked
    for the next block, the table raises the first failure instead."""

    def __init__(self, path, columns: dict[str, _Kind]):
        self.path = path
        self.columns = columns

    def __iter__(self):
        path, header = self.path, tuple(self.columns)
        with open(path, newline="") as fh:
            reader = _rows(path, fh)
            for line_no, row in enumerate(reader, start=1):
                if not row or row[0].startswith("#"):
                    continue
                if tuple(c.strip() for c in row) != header:
                    raise FormatError(
                        f"{path}:{line_no}: expected header "
                        f"{','.join(header)}, got {','.join(row)}")
                break
            else:
                raise FormatError(f"{path}:1: missing header row")
            more = True  # a file without rows is one empty block
            while more:
                block = list(islice(reader, _BLOCK))
                more = len(block) == _BLOCK
                self.lines = [n for n, row in enumerate(block, line_no + 1)
                              if row]  # csv row numbers, blank rows skipped
                line_no += len(block)
                block = [row for row in block if row]
                self.n, self.error = len(block), None
                if set(map(len, block)) - {len(header)}:
                    i = next(i for i, row in enumerate(block)
                             if len(row) != len(header))
                    self.fail(i, f"expected {len(header)} fields, "
                                 f"got {len(block[i])}")
                cells = list(zip(*block[:self.n])) or [()] * len(header)
                values = {k: self._column(k, c) for k, c in zip(header, cells)}
                yield {k: v[:self.n] for k, v in values.items()}
                if self.error is not None:
                    raise FormatError(self.error)

    def _column(self, key, cells) -> list:
        """The rows in play of one column, read as its kind."""
        kind, cells = self.columns[key], cells[:self.n]
        blank = kind.blank and "" in cells
        try:
            if blank:
                values = [None if c == "" else kind.parse(c) for c in cells]
            else:
                values = list(map(kind.parse, cells))
        except ValueError:
            values = []  # the cells before the one parse refuses, c
            with suppress(ValueError):
                for c in cells:
                    values.append(None if blank and c == "" else kind.parse(c))
            self.fail(len(values), kind.bad.format(k=key, c=c))
        for ok, message in kind.checks:
            self.expect(values, ok, lambda i: message.format(
                k=key, c=cells[i], v=values[i]))
        return values

    def fail(self, i: int, message: str) -> None:
        self.n = i
        self.error = f"{self.path}:{self.lines[i]}: {message}"

    def expect(self, values, ok, message) -> None:
        """Fail at the first row in play whose value is not None and fails
        ok(value); message(i) says why."""
        values = values[:self.n]
        if not all(map(ok, values if None not in values
                       else filter(partial(is_not, None), values))):
            i = next(i for i, v in enumerate(values)
                     if v is not None and not ok(v))
            self.fail(i, message(i))

    def add(self, groups: dict, rows, message) -> None:
        """Set groups[group][key] = value for each (group, key, value) row
        in play; a row whose key its group has already fails, and
        message(group, key) says why."""
        for i, (group, key, value) in enumerate(islice(rows, self.n)):
            into = groups.setdefault(group, {})
            if key in into:
                return self.fail(i, message(group, key))
            into[key] = value


def _array(block: dict, keys) -> np.ndarray:
    """The block's columns `keys` as a (rows, keys) float array, NaN blank:
    a row with a blank in it is blank throughout."""
    out = np.array([block[k] for k in keys], dtype=float).T.reshape(
        -1, len(keys))
    out[np.isnan(out).any(axis=1)] = np.nan
    return out


def _candidates(c: dict, head: np.ndarray) -> np.ndarray:
    """(rows, 3, 2) head candidates of the block's c1x..c3y columns: a
    row's pairs with both values present, first, then blank pairs; its
    head alone when it has none."""
    keys = list(_CANDIDATES)
    pairs = np.stack([_array(c, k) for k in zip(keys[::2], keys[1::2])], 1)
    present = ~np.isnan(pairs[..., 0])
    cands = DetectionTable.of(head).cands
    cands[present.any(axis=1), 0] = np.nan
    slot = np.cumsum(present, axis=1) - 1  # each present pair's place
    cands[np.nonzero(present)[0], slot[present]] = pairs[present]
    return cands


# ---------------------------------------------------------------------------
# detections


def write_detections_csv(path, detections: dict[str, DetectionTable],
                         meta: dict | None = None) -> None:
    _write_columns(path, _DETECTIONS, [
        [t.frame, [view] * len(t), *t.head.T, *t.bbox.T, t.confidence,
         *t.cands.reshape(-1, 6).T]
        for view, t in ((v, detections[v]) for v in VIEWS if v in detections)
    ], meta)


def _join(blocks: list, *keys: list) -> tuple:
    """The blocks as one table, with their key columns, sorted stably by
    each key in turn and then by frame. The blocks give up their columns
    one at a time, each once it is joined and sorted. A file has at least
    one block."""
    keys = [np.concatenate(k) for k in keys]
    order = np.lexsort([np.concatenate([b.frame for b in blocks]),
                        *keys[::-1]])
    columns = [np.concatenate([vars(b).pop(name) for b in blocks])[order]
               for name in [*vars(blocks[0])]]
    return DetectionTable(*columns), *(k[order] for k in keys)


def _read_detections(path, columns: dict[str, _Kind]
                     ) -> dict[str, DetectionTable]:
    """view -> table, sorted by frame and in file order within a frame,
    read against `columns`."""
    blocks, front = [], []
    for c in _Table(path, columns):
        head = _array(c, "xy")
        blocks.append(DetectionTable.of(
            head, frame=c["frame"], cands=_candidates(c, head),
            bbox=_array(c, _BOX),
            confidence=_array(c, ("confidence",))[:, 0]))
        front.append(np.array(c["view"], dtype=str) == "front")
    table, front = _join(blocks, front)  # the top view's rows first
    n = len(front) - np.count_nonzero(front)
    return {"top": table[:n], "front": table[n:]}


def read_detections_csv(path) -> dict[str, DetectionTable]:
    return _read_detections(path, _DETECTIONS)


# ---------------------------------------------------------------------------
# 2D tracklets


def write_tracklets_csv(path, tracklets: list[Tracklet2D],
                        meta: dict | None = None) -> None:
    order = sorted(tracklets, key=lambda t: (t.view, t.id))
    _write_columns(path, _TRACKLETS, [
        [[t.id] * len(t.frames), [t.view] * len(t.frames), t.frames,
         *d.head.T, *d.cands.reshape(-1, 6).T, d.cov[:, 0, 0], d.cov[:, 0, 1],
         d.cov[:, 1, 1]] for t, d in ((t, t.detections) for t in order)],
        meta)


def read_tracklets_csv(path) -> list[Tracklet2D]:
    t = _Table(path, _TRACKLETS)
    seen: dict[tuple, dict] = {}  # (view, id) -> frame -> None
    blocks, top, ids = [], [], []
    for c in t:
        t.add(seen, zip(zip(c["view"], c["tracklet_id"]), c["frame"],
                        repeat(None)),
              lambda key, f: f"duplicate row for {key[0]} tracklet {key[1]} "
                             f"at frame {f}")
        head = _array(c, "xy")
        cov = _array(c, ("covxx", "covxy", "covxy", "covyy"))
        blocks.append(DetectionTable.of(head, frame=c["frame"],
                                        cands=_candidates(c, head),
                                        cov=cov.reshape(-1, 2, 2)))
        top.append(np.array(c["view"], dtype=str) == "top")
        ids.append(np.array(c["tracklet_id"], dtype=np.int64))
    del seen
    # Tracklets in (view, id) order, "front" first; each one's rows are
    # contiguous, frames ascending.
    table, top, ids = _join(blocks, top, ids)
    n = len(top) - np.count_nonzero(top)
    return [Tracklet2D(id=tid, view=view, detections=rows[a:b])
            for view, rows, key in (("front", table[:n], ids[:n]),
                                    ("top", table[n:], ids[n:]))
            for tid, a, b in runs(key)]


# ---------------------------------------------------------------------------
# 3D tracklets


def write_tracklets3d_csv(path, tracklets: list[Tracklet3D],
                          meta: dict | None = None) -> None:
    rows = [(t, f) for t in sorted(tracklets, key=lambda t: t.id)
            for f in t.frames]
    points = [t.points.get(f, (np.nan,) * 3) for t, f in rows]
    sources = [t.sources.get(f, (None, None)) for t, f in rows]
    _write_columns(path, _TRACKLETS3D, [[
        [t.id for t, _ in rows], [f for _, f in rows],
        *np.reshape(points, (-1, 3)).T,
        [s[0] for s in sources], [s[1] for s in sources]]], meta)


def read_tracklets3d_csv(path) -> list[Tracklet3D]:
    t = _Table(path, _TRACKLETS3D)
    sources: dict[int, dict] = {}  # id -> frame -> (top id, front id)
    points: dict[int, dict] = {}  # id -> frame -> point
    for c in t:
        ids, frames = c["tracklet_id"], c["frame"]
        t.add(sources, zip(ids, frames, zip(c["top_tracklet_id"],
                                            c["front_tracklet_id"])),
              lambda tid, f: (
                  f"duplicate row for 3D tracklet {tid} at frame {f}"))
        xyz = _array(c, "xyz")  # NaN where blank
        full = (~np.isnan(xyz).any(axis=1)).tolist()
        for tid, f, p, has_point in zip(ids, frames, xyz, full):
            if has_point:
                points.setdefault(tid, {})[f] = p
    return [Tracklet3D(id=tid, points=points.get(tid, {}), sources=s)
            for tid, s in sorted(sources.items())]


# ---------------------------------------------------------------------------
# final tracks


def write_tracks_csv(path, tracks: list[Track3D],
                     meta: dict | None = None) -> None:
    # Rows by frame, then by fish id (stable for equal ids).
    order = sorted(tracks, key=lambda t: t.fish_id)
    keys = sorted((f, k) for k, t in enumerate(order) for f in t.points)
    _write_columns(path, _TRACKS, [[
        [f for f, _ in keys], [order[k].fish_id for _, k in keys],
        *np.reshape([order[k].points[f] for f, k in keys], (-1, 3)).T]], meta)


def read_tracks_csv(path) -> list[Track3D]:
    t = _Table(path, _TRACKS)
    tracks: dict[int, dict] = {}  # fish id -> frame -> point
    for c in t:
        t.add(tracks, zip(c["fish_id"], c["frame"], _array(c, "xyz")),
              lambda fid, f: f"duplicate row for fish {fid} at frame {f}")
    return [Track3D(fish_id=fid, points=tracks[fid]) for fid in sorted(tracks)]


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
    _write_columns(path, _ANNOTATIONS, [[
        f, np.array(gt.fish_ids)[j], [VIEWS[i] for i in k.tolist()],
        *boxes[f, j, k].T,
        *heads[f, j, k].T, occluded[f, j, k].astype(int),
        *gt.points3d[f, j].T]], meta)  # a blank point is NaN


def read_annotations_csv(path) -> GroundTruth:
    meta = read_meta(path)
    if "fps" not in meta:
        raise FormatError(f"{path}:1: missing '# fps:' header line")
    fps = _meta_number(path, meta, "fps", float)
    if fps <= 0:
        raise FormatError(
            f"{path}:1: '# fps:' must be positive, got {meta['fps']!r}")
    one = GroundTruth(fps, 1, [0])  # one frame of one fish
    limit = _MAX_GT_BYTES // sum(a.nbytes for a in (
        one.points3d, *one.heads.values(), *one.boxes.values(),
        *one.occluded.values()))  # the frames a one-fish GroundTruth may have
    n_frames = None
    if "n_frames" in meta:
        n_frames = _meta_number(path, meta, "n_frames", int)
        if n_frames < 0:
            raise FormatError(f"{path}:1: '# n_frames:' must be >= 0, "
                              f"got {n_frames}")
        if n_frames > limit:
            raise FormatError(f"{path}:1: '# n_frames: {n_frames}' is too "
                              f"large to allocate")
    # Without a '# n_frames:' line the largest row frame sets the count.
    in_range = range(limit if n_frames is None else n_frames).__contains__
    bound = (f"[0, n_frames = {n_frames})" if n_frames is not None else
             f"[0, {limit}): too many frames to allocate")
    t = _Table(path, _ANNOTATIONS)
    parts, seen = [], {}  # seen: (view, fish id) -> frame -> None
    for c in t:
        frames = c["frame"]
        t.expect(frames, in_range,
                 lambda i: f"frame {frames[i]} outside {bound}")
        t.add(seen, zip(zip(c["view"], c["fish_id"]), frames, repeat(None)),
              lambda key, f: f"duplicate row for fish {key[1]} in view "
                             f"{key[0]} at frame {f}")
        parts.append((np.array(frames, dtype=np.intp),
                      np.array(c["fish_id"], dtype=np.int64),
                      np.array(c["view"], dtype=str), _array(c, _BOX),
                      _array(c, ("head_x", "head_y")),
                      np.array(c["occluded"], dtype=bool),
                      _array(c, ("x3d", "y3d", "z3d"))))  # NaN where blank
    f, fish, views, box, heads, occluded, points = map(np.concatenate,
                                                       zip(*parts))
    if n_frames is None:
        n_frames = 1 + int(f.max(initial=-1))
    try:
        gt = GroundTruth(fps, n_frames, np.unique(fish))
    except (MemoryError, ValueError):  # numpy: too large, or too many dims
        raise FormatError(f"{path}:1: '# n_frames: {n_frames}' is too large "
                          f"to allocate") from None
    if n_frames == 0:  # so there is no row either
        raise FormatError(f"{path}: the annotations cover no frame")

    j = np.searchsorted(gt.fish_ids, fish)
    for view in VIEWS:
        m = views == view
        gt.boxes[view][f[m], j[m]] = box[m]
        gt.heads[view][f[m], j[m]] = heads[m]
        gt.occluded[view][f[m], j[m]] = occluded[m]
    # A (frame, fish) with 3D coordinates in both views' rows takes the
    # later row's.
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
