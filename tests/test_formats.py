import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference
from reference import same_table, tracklet
from stereomot import DetectionTable, GroundTruth, Track3D, Tracklet3D, __version__
from stereomot.formats import (
    _DETECTIONS,
    _TRACKLETS,
    FormatError,
    _cells,
    _write_columns,
    read_annotations_csv,
    read_detections_csv,
    read_meta,
    read_pgm,
    read_tracklets3d_csv,
    read_tracklets_csv,
    read_tracks_csv,
    write_annotations_csv,
    write_detections_csv,
    write_pgm,
    write_report_json,
    write_tracklets3d_csv,
    write_tracklets_csv,
    write_tracks_csv,
)

UGLY = 0.1 + 0.2  # 0.30000000000000004, must survive a round trip


def test_detections_roundtrip(tmp_path):
    path = tmp_path / "dets.csv"
    nan = math.nan
    top = DetectionTable.of(
        [(UGLY, 2.0), (7.0, 8.0)], frame=[0, 3],
        cands=[[(UGLY, 2.0), (9.5, 1.25)], [(7.0, 8.0), (nan, nan)]],
        bbox=[(1.0, 2.0, 3.0, 4.0), (nan,) * 4], confidence=[97.5, 100.0])
    front = DetectionTable.of((5.0, 6.0))  # no bbox, no confidence
    write_detections_csv(path, {"top": top, "front": front},
                         meta={"seed": 42})
    got = read_detections_csv(path)
    assert same_table(got["top"], top)
    assert same_table(got["front"], front)
    assert np.isnan(got["front"].bbox).all()
    assert np.isnan(got["front"].confidence).all()
    meta = read_meta(path)
    assert meta["seed"] == "42"
    assert meta["generator"].startswith("stereomot ")


def test_tracklets_roundtrip(tmp_path):
    path = tmp_path / "tracklets.csv"
    a = tracklet(4, "front", [2, 5], [(1.5, UGLY), (2.5, 3.5)],
                 cov=[[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    b = tracklet(0, "top", [0], [(10.0, 20.0)],
                 cands=[[(10.0, 20.0), (11.0, 21.0)]])
    write_tracklets_csv(path, [a, b])
    out = read_tracklets_csv(path)
    assert [(t.view, t.id) for t in out] == [("front", 4), ("top", 0)]
    assert same_table(out[0].detections, a.detections)
    assert same_table(out[1].detections, b.detections)
    assert out[0].frames.tolist() == [2, 5]
    assert np.isnan(out[1].detections.cov).all()


def test_tracklets3d_roundtrip(tmp_path):
    path = tmp_path / "t3d.csv"
    t = Tracklet3D(id=2)
    t.points[0] = np.array([1.0, 2.0, UGLY])
    t.sources[0] = (5, 9)
    t.sources[1] = (5, None)  # top-only frame: no 3D point
    write_tracklets3d_csv(path, [t])
    out = read_tracklets3d_csv(path)
    assert len(out) == 1
    r = out[0]
    assert r.id == 2
    assert np.array_equal(r.points[0], [1.0, 2.0, UGLY])
    assert 1 not in r.points
    assert r.sources == {0: (5, 9), 1: (5, None)}


def test_tracks_roundtrip(tmp_path):
    path = tmp_path / "tracks.csv"
    a = Track3D(fish_id=1, points={0: np.array([1.0, 2.0, 3.0]),
                                   1: np.array([UGLY, 2.0, 3.0])})
    b = Track3D(fish_id=2, points={0: np.array([9.0, 9.0, 9.0])})
    write_tracks_csv(path, [a, b], meta={"fps": 60.0})
    out = read_tracks_csv(path)
    assert [t.fish_id for t in out] == [1, 2]
    assert np.array_equal(out[0].points[1], [UGLY, 2.0, 3.0])
    assert read_meta(path)["fps"] == "60.0"


def test_annotations_roundtrip(tmp_path):
    path = tmp_path / "gt.csv"
    gt = GroundTruth(fps=60.0, n_frames=2, ids=[1])
    gt.boxes["top"][0, 0] = (1.0, 2.0, 3.0, 4.0)
    gt.heads["top"][0, 0] = (2.0, 3.0)
    gt.boxes["front"][0, 0] = (5.0, 6.0, 7.0, 8.0)
    gt.heads["front"][0, 0] = (6.0, 7.0)
    gt.occluded["front"][0, 0] = True
    gt.boxes["top"][1, 0] = (1.0, 2.0, 3.0, 4.0)
    gt.heads["top"][1, 0] = (2.5, 3.5)
    gt.points3d[0, 0] = (10.0, 11.0, UGLY)
    write_annotations_csv(path, gt)
    out = read_annotations_csv(path)
    assert out.fps == 60.0
    assert out.n_frames == 2
    assert out.n_fish == 1
    assert out.fish_ids == (1,)
    assert out.occluded["front"][0, 0]
    assert tuple(out.heads["top"][1, 0]) == (2.5, 3.5)
    assert np.array_equal(out.points3d[0, 0], [10.0, 11.0, UGLY])
    assert np.isnan(out.points3d[1, 0]).all()  # no 3D coords at frame 1
    assert np.isnan(out.heads["front"][1, 0]).all()  # no front row at frame 1


def test_annotations_require_fps(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,fish_id,view,bbox_x,bbox_y,bbox_w,bbox_h,"
                    "head_x,head_y,occluded,x3d,y3d,z3d\n")
    with pytest.raises(FormatError, match="fps"):
        read_annotations_csv(path)


def test_annotations_reject_bad_flag(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# fps: 60.0\n"
                    "frame,fish_id,view,bbox_x,bbox_y,bbox_w,bbox_h,"
                    "head_x,head_y,occluded,x3d,y3d,z3d\n"
                    "0,1,top,1,2,3,4,2,3,2,,,\n")
    with pytest.raises(FormatError, match=rf"{path}:3"):
        read_annotations_csv(path)


def test_header_mismatch_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# generator: x\nframe,view,wrong\n")
    with pytest.raises(FormatError, match=rf"{path}:2"):
        read_detections_csv(path)


def test_field_count_mismatch_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,fish_id,x,y,z\n0,1,1.0,2.0\n")
    with pytest.raises(FormatError, match=rf"{path}:2: expected 5 fields"):
        read_tracks_csv(path)


@pytest.mark.parametrize("bad, message", [
    ("1700,1,2.0,3.0", "expected 5 fields, got 4"),
    ("1700,1,oops,2.0,3.0", "field 'x' must be a number")])
def test_line_numbers_hold_across_read_blocks(tmp_path, bad, message):
    # Readers take rows in blocks of a few hundred; blank rows in earlier
    # blocks still count as lines.
    rows = [f"{f},1,1.0,2.0,3.0" for f in range(2000)]
    for f in (3, 700, 1500):
        rows[f] = ""
    rows[1700] = bad
    path = tmp_path / "tracks.csv"
    path.write_text("# fps: 60.0\nframe,fish_id,x,y,z\n"
                    + "\n".join(rows) + "\n")
    with pytest.raises(FormatError, match=rf"{path}:1703: {message}"):
        read_tracks_csv(path)


def test_bad_value_reports_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,fish_id,x,y,z\nzero,1,1.0,2.0,3.0\n")
    with pytest.raises(FormatError, match="must be an integer"):
        read_tracks_csv(path)
    path.write_text("frame,fish_id,x,y,z\n0,1,oops,2.0,3.0\n")
    with pytest.raises(FormatError, match="must be a number"):
        read_tracks_csv(path)


def test_empty_file_missing_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# generator: x\n")
    with pytest.raises(FormatError, match="missing header"):
        read_tracks_csv(path)


def test_report_json_schema(tmp_path):
    import json
    path = tmp_path / "report.json"
    write_report_json(path, {"mota": 83.0}, meta={"sequence": "run1"})
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["generator"].startswith("stereomot ")
    assert doc["sequence"] == "run1"
    assert doc["mota"] == 83.0


def test_pgm_roundtrip(tmp_path):
    path = tmp_path / "img.pgm"
    img = np.arange(200, dtype=np.uint8).reshape(10, 20)
    write_pgm(path, img)
    out = read_pgm(path)
    assert out.shape == (10, 20)
    assert np.array_equal(out, img)
    out[0, 0] = 99  # a writable array of its own, not a view of the file
    assert np.array_equal(read_pgm(path), img)


def test_pgm_rejects_bad_input(tmp_path):
    path = tmp_path / "img.pgm"
    with pytest.raises(FormatError):
        write_pgm(path, np.zeros((4, 4), dtype=np.float64))
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(FormatError, match="P5"):
        read_pgm(path)
    write_pgm(path, np.zeros((4, 4), dtype=np.uint8))
    whole = path.read_bytes()
    for cut in (3, 16):  # a short and an empty payload
        path.write_bytes(whole[:-cut])
        with pytest.raises(FormatError, match=(
                rf"img\.pgm: pixel payload is {16 - cut} bytes, expected 16")):
            read_pgm(path)


def test_pgm_header_comment_lines(tmp_path):
    # Netpbm allows any number of `#` comment lines between header fields.
    path = tmp_path / "img.pgm"
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    for header in (b"P5\n# one\n# two\n3 2\n255\n",
                   b"P5 # first\n#\n3\n# width above\n2 255\n"):
        path.write_bytes(header + img.tobytes())
        assert np.array_equal(read_pgm(path), img)


@pytest.mark.parametrize("size", [b"0 0", b"0 3", b"3 0"])
def test_pgm_rejects_zero_size(tmp_path, size):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n" + size + b"\n255\n")
    with pytest.raises(FormatError, match="img.pgm: image is"):
        read_pgm(path)


# Every kind of value a writer formats; text without the characters that
# csv.writer quotes (and without NUL, which Python 3.10's csv.writer
# refuses).
PLAIN = st.characters(exclude_categories=("Cs",),
                      exclude_characters=',"\r\n\x00')
CELLS = st.one_of(
    st.none(), st.booleans(), st.builds(np.bool_, st.booleans()),
    st.integers(), st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.int32, st.integers(-2**31, 2**31 - 1)),
    st.floats(), st.builds(np.float64, st.floats()),
    st.builds(np.float32, st.floats(width=32)), st.text(PLAIN))
# Every file has at least five columns; csv.writer quotes the one blank
# field of a one-field row.
TABLES = st.integers(2, 6).flatmap(lambda k: st.lists(
    st.lists(CELLS, min_size=k, max_size=k), max_size=8))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(TABLES)
def test_rows_have_the_bytes_csv_writer_gives(tmp_path, rows):
    header = [f"h{i}" for i in range(len(rows[0]) if rows else 2)]
    columns = [list(c) for c in zip(*rows)] or [[] for _ in header]
    _write_columns(tmp_path / "t.csv", header, [columns], {"seed": 1})
    want = (f"# seed: 1\n# generator: stereomot {__version__}\n"
            + reference.csv_rows([header, *zip(*map(_cells, columns))]))
    assert (tmp_path / "t.csv").read_bytes() == want.encode()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.text(PLAIN), st.sampled_from(',"\r\n'), st.text(PLAIN))
def test_a_cell_csv_writer_would_quote_is_refused(tmp_path, a, special, b):
    with pytest.raises(FormatError, match="quoting"):
        _write_columns(tmp_path / "t.csv", ["x", "y"],
                       [[[1.5, 2], ["top", a + special + b]]])
    assert not (tmp_path / "t.csv").exists()


# Rows of detections.csv and tracklets.csv with every blank a reader
# rules on: 0-3 candidate pairs, a pair with one blank coordinate (dropped)
# or a blank c1 before a present c2 (which moves up), a partial box or
# covariance (blank throughout) and a blank confidence.
VALUE = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
CELL = st.one_of(st.none(), VALUE)  # None is a blank cell
SIZE = st.one_of(st.none(), st.floats(0.0, 1e4, allow_nan=False))
CANDIDATE_CELLS = st.lists(CELL, min_size=6, max_size=6)
DETECTION_ROWS = st.lists(st.tuples(
    st.integers(0, 4), st.sampled_from(["top", "front"]), VALUE, VALUE,
    st.tuples(CELL, CELL, SIZE, SIZE), CELL, CANDIDATE_CELLS), max_size=12)
TRACKLET_ROWS = st.lists(st.tuples(
    st.integers(0, 2), st.sampled_from(["top", "front"]), st.integers(0, 4),
    VALUE, VALUE, CANDIDATE_CELLS, st.lists(CELL, min_size=3, max_size=3)),
    max_size=12, unique_by=lambda row: row[:3])


def csv_text(header: str, rows) -> str:
    cells = [["" if c is None else repr(c) if isinstance(c, float)
              else str(c) for c in row] for row in rows]
    return header + "\n" + "".join(",".join(r) + "\n" for r in cells)


def want_row(t, i, head, cands, groups):
    """Row i of table t holds the drawn row by the reader's rules: the
    present candidate pairs first, or the head alone when there is none,
    then NaN pairs; and each (column, cells) group blank throughout when a
    cell of it is blank."""
    pairs = [p for p in zip(cands[::2], cands[1::2]) if None not in p]
    pairs = pairs or [head]
    assert t.head[i].tolist() == list(head)
    assert np.array_equal(t.cands[i], pairs + [(math.nan,) * 2] * (
        3 - len(pairs)), equal_nan=True)
    for column, cells in groups:
        want = (np.full(column[i].shape, np.nan) if None in cells
                else np.reshape(cells, column[i].shape))
        assert np.array_equal(column[i], want, equal_nan=True)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(DETECTION_ROWS)
@example([(1, "top", 1.0, 2.0, (1.0, None, 3.0, 4.0), None,
           [None, None, 5.0, 6.0, 7.0, None]),
          (0, "top", 3.0, 4.0, (1.0, 2.0, 3.0, 4.0), 97.5,
           [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
          (0, "front", 5.0, 6.0, (None,) * 4, 90.0, [None] * 6)])
def test_detection_rows_read_by_the_blank_rules(tmp_path, rows):
    raw, once, twice = (tmp_path / n for n in ("raw.csv", "a.csv", "b.csv"))
    raw.write_text(csv_text(",".join(_DETECTIONS), [
        (f, v, x, y, *box, conf, *cands)
        for f, v, x, y, box, conf, cands in rows]))
    got = read_detections_csv(raw)
    for view in ("top", "front"):
        mine = sorted((r for r in rows if r[1] == view), key=lambda r: r[0])
        assert got[view].frame.tolist() == [r[0] for r in mine]
        for i, (f, v, x, y, box, conf, cands) in enumerate(mine):
            want_row(got[view], i, (x, y), cands,
                     [(got[view].bbox, box), (got[view].confidence, (conf,))])
    # write . read is idempotent: a second pass writes the first's bytes.
    write_detections_csv(once, got)
    write_detections_csv(twice, read_detections_csv(once))
    assert once.read_bytes() == twice.read_bytes()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(TRACKLET_ROWS)
@example([(0, "front", 1, 1.0, 2.0, [None, 1.0, 2.0, 3.0, None, None],
           [1.0, None, 2.0]),
          (0, "front", 0, 3.0, 4.0, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
           [1.0, 0.5, 2.0]),
          (1, "top", 0, 5.0, 6.0, [None] * 6, [None] * 3)])
def test_tracklet_rows_read_by_the_blank_rules(tmp_path, rows):
    raw, once, twice = (tmp_path / n for n in ("raw.csv", "a.csv", "b.csv"))
    raw.write_text(csv_text(",".join(_TRACKLETS), [
        (tid, v, f, x, y, *cands, *cov)
        for tid, v, f, x, y, cands, cov in rows]))
    got = read_tracklets_csv(raw)
    assert [(t.view, t.id) for t in got] == sorted({r[1::-1] for r in rows})
    for t in got:
        mine = sorted((r for r in rows if r[1::-1] == (t.view, t.id)),
                      key=lambda r: r[2])
        assert t.frames.tolist() == [r[2] for r in mine]
        for i, (tid, v, f, x, y, cands, (xx, xy, yy)) in enumerate(mine):
            want_row(t.detections, i, (x, y), cands,
                     [(t.detections.cov, (xx, xy, xy, yy))])
    write_tracklets_csv(once, got)
    write_tracklets_csv(twice, read_tracklets_csv(once))
    assert once.read_bytes() == twice.read_bytes()


# Malformed files with two faults: the reader reports the earlier line, and
# on one line its fields in header order, then the line's duplicate key.
TRACKS_HEADER = "frame,fish_id,x,y,z\n"
ANNOTATIONS_HEADER = ("frame,fish_id,view,bbox_x,bbox_y,bbox_w,bbox_h,"
                      "head_x,head_y,occluded,x3d,y3d,z3d")
ANNOTATION = "{f},1,top,1.0,1.0,2.0,2.0,{head},1.0,0,,,"


def test_a_bad_field_wins_over_a_later_block(tmp_path):
    rows = [f"{f},1,1.0,2.0,3.0\n" for f in range(1000)]
    rows[1] = "1,1,oops,2.0,3.0\n"
    rows[700] = "700,1,1.0,2.0\n"  # a field short, in the second block
    path = tmp_path / "tracks.csv"
    path.write_text(TRACKS_HEADER + "".join(rows))
    with pytest.raises(FormatError, match=(
            rf"^{path}:3: field 'x' must be a number, got 'oops'$")):
        read_tracks_csv(path)


def test_a_duplicate_wins_over_a_bad_field_in_a_later_block(tmp_path):
    rows = [f"{f},1,1.0,2.0,3.0\n" for f in range(1000)]
    rows[5] = rows[4]
    rows[600] = "600,one,1.0,2.0,3.0\n"
    path = tmp_path / "tracks.csv"
    path.write_text(TRACKS_HEADER + "".join(rows))
    with pytest.raises(FormatError, match=(
            rf"^{path}:7: duplicate row for fish 1 at frame 4$")):
        read_tracks_csv(path)


@pytest.mark.parametrize("lines, line, message", [
    (["# fps: 60.0", "# n_frames: 2", ANNOTATIONS_HEADER,
      ANNOTATION.format(f=5, head="1.0")], 4,
     "frame 5 outside [0, n_frames = 2)"),
    (["# fps: 60.0", ANNOTATIONS_HEADER, ANNOTATION.format(f=0, head="1.0"),
      ANNOTATION.format(f=0, head="1.0")], 4,
     "duplicate row for fish 1 in view top at frame 0"),
    (["# n_frames: x", "# fps: 60.0", ANNOTATIONS_HEADER], 1,
     "field 'n_frames' must be an integer, got 'x'"),
], ids=["frame range", "duplicate", "n_frames line"])
def test_annotations_report_the_earliest_line(tmp_path, lines, line, message):
    # Each file's next line holds a bad field.
    path = tmp_path / "annotations.csv"
    path.write_text("\n".join(lines + [ANNOTATION.format(f=1, head="oops")]))
    with pytest.raises(FormatError) as e:
        read_annotations_csv(path)
    assert str(e.value) == f"{path}:{line}: {message}"


def test_an_unallocatable_n_frames_is_refused_before_any_row(tmp_path):
    # The count is refused at line 1 from the size of a one-fish
    # GroundTruth alone: no row is read, so line 4's bad frame is not the
    # one reported, and nothing of that size is allocated.
    path = tmp_path / "annotations.csv"
    path.write_text("\n".join([
        "# fps: 60.0", "# n_frames: 1000000000000000", ANNOTATIONS_HEADER,
        ANNOTATION.format(f=-1, head="1.0")]))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as e:
            read_annotations_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == (
        f"{path}:1: '# n_frames: 1000000000000000' is too large to allocate")
    assert peak < 1 << 20

    # A 12 000-frame recording is well within the limit.
    path.write_text("\n".join([
        "# fps: 60.0", "# n_frames: 12000", ANNOTATIONS_HEADER,
        ANNOTATION.format(f=11999, head="1.0")]))
    assert read_annotations_csv(path).n_frames == 12000


@pytest.mark.parametrize("frames, line", [
    ([30_000_000], 3), ([10**12], 3), ([0, 10**12, -1, 30_000_000], 4)])
def test_an_unallocatable_row_frame_is_refused_at_its_line(tmp_path, frames,
                                                           line):
    # Without a '# n_frames:' line the largest row frame sets the count, so
    # each row's frame is held to the same limit as that line, and the
    # earliest row past it is reported before anything of its size is
    # allocated.
    path = tmp_path / "annotations.csv"
    path.write_text("\n".join(["# fps: 60.0", ANNOTATIONS_HEADER] + [
        ANNOTATION.format(f=f, head="1.0").replace(",1,", f",{k},", 1)
        for k, f in enumerate(frames)]))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as e:
            read_annotations_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value).startswith(
        f"{path}:{line}: frame {frames[line - 3]} outside [0, ")
    assert peak < 1 << 20


def test_a_line_names_its_first_bad_field_in_header_order(tmp_path):
    path = tmp_path / "detections.csv"
    path.write_text("frame,view,x,y,bbox_x,bbox_y,bbox_w,bbox_h,confidence,"
                    "c1x,c1y,c2x,c2y,c3x,c3y\n"
                    "0,top,1.0,2.0,,,,,high,oops,2.0,,,,\n")
    with pytest.raises(FormatError, match=(
            rf"^{path}:2: field 'confidence' must be a number, got 'high'$")):
        read_detections_csv(path)


def test_readers_hold_one_block_of_text(tmp_path):
    # What a reader allocates beyond what it returns stays a small multiple
    # of the file: it never holds a whole file of cell strings.
    frames = [i // 2 for i in range(20_000)]
    views = ["top", "front"] * 10_000
    x = [f + UGLY for f in frames]
    y = [2.0 * f for f in frames]
    blank = [None] * len(frames)
    cov = [f if v == "front" else None for f, v in zip(frames, views)]
    files = {
        "detections.csv": (
            "frame,view,x,y,bbox_x,bbox_y,bbox_w,bbox_h,confidence,c1x,c1y,"
            "c2x,c2y,c3x,c3y", [frames, views, x, y, x, y, [3.0] * len(x), y,
                                [97.5] * len(x), *[blank] * 6],
            read_detections_csv),
        "tracklets.csv": (
            "tracklet_id,view,frame,x,y,c1x,c1y,c2x,c2y,c3x,c3y,covxx,covxy,"
            "covyy", [[f // 500 for f in frames], views, frames, x, y,
                      *[blank] * 6, cov, blank, cov],
            read_tracklets_csv)}
    for name, (header, columns, read) in files.items():
        path = tmp_path / name
        _write_columns(path, header.split(","), [columns])
        gc.collect()
        tracemalloc.start()
        try:
            out = read(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if name == "detections.csv":  # view -> table
            out = [d for t in out.values() for d in t.frame]
        assert len(out) in (20_000, 40), name  # rows, or tracklets
        assert peak - kept <= 4 * path.stat().st_size, name


def test_writers_format_one_block_at_a_time(tmp_path):
    # The writers' twin of the test above: what a writer allocates beyond
    # its input stays below the size of the file it writes, because it
    # never holds a whole file of cell strings.
    frames = np.arange(30_000) // 2
    heads = np.stack([frames + UGLY, 2.0 * frames], axis=1)
    table = DetectionTable.of(heads, frame=frames,
                              bbox=np.c_[heads, heads + 3.0],
                              confidence=97.5)
    files = {
        "detections.csv": (write_detections_csv,
                           {"top": table[::2], "front": table[1::2]}),
        "tracklets.csv": (write_tracklets_csv, [
            tracklet(k, view, rows.frame, rows.head,
                     cov=np.diag([1.0, 2.0]) if view == "front" else None)
            for k in range(30) for view, rows in (
                ("top", table[1000 * k:1000 * (k + 1):2]),
                ("front", table[1000 * k + 1:1000 * (k + 1):2]))])}
    for name, (write, data) in files.items():
        path = tmp_path / name
        gc.collect()
        tracemalloc.start()
        try:
            write(path, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size, name
