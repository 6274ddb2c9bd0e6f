"""Fuzzed input files for every reader.

Valid files come from one small `pipeline` run and two rendered frame
pairs. Each example mutates one of them: lines or fields dropped,
duplicated or swapped, a field set to a wrong type, nan/inf/1e308, an
oversized value or a byte that is not UTF-8, the file emptied or cut
short, or (for the calibration) a value of the parsed JSON replaced or
deleted. The subcommands that read the file must then exit 0 or 2, raise
nothing, and write no non-finite number. The `slow` marker runs the same
check at larger example counts.
"""

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereomot.cli import main

SCENE = """\
n_fish = 2
duration_s = 0.25
image_width = 200
image_height = 200
focal = 250.0
"""

# Stand-ins for one field: wrong types, non-finite and extreme numbers,
# an integer beyond 64 bits, csv quoting, a field over csv's size limit
# and a byte that is not UTF-8. No integer here could make a reader
# allocate a large array it can fill.
TOKENS = [b"", b"x", b"nan", b"inf", b"-inf", b"1e308", b"-1e308", b"1e999",
          b"0", b"-1", b"3", b"99999999999999999999", b"true", b"top",
          b"front", b'"', b"\xff", b"1" * 200_000]
OPS = ["drop_line", "dup_line", "swap_lines", "set_field", "drop_field",
       "dup_field", "truncate", "insert", "empty"]
JSON_VALUES = [None, True, "x", "top", -1, 0, 1e308, float("nan"),
               float("inf"), [], {}, [1.0, 2.0], [[1.0]] * 3]


def mutate(data: bytes, ops, sep: bytes) -> bytes:
    """Apply each (op, a, b, token) to the file's bytes; `a` and `b` pick
    lines, fields and offsets modulo what there is, and fields split on
    `sep`."""
    for op, a, b, token in ops:
        if op == "truncate":
            data = data[:a % (len(data) + 1)]
            continue
        if op == "insert":
            k = a % (len(data) + 1)
            data = data[:k] + token + data[k:]
            continue
        if op == "empty":
            data = b""
            continue
        lines = data.splitlines(keepends=True) or [b""]
        i, j = a % len(lines), b % len(lines)
        if op == "drop_line":
            del lines[i]
        elif op == "dup_line":
            lines.insert(i, lines[i])
        elif op == "swap_lines":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            body = lines[i].rstrip(b"\r\n")
            cells = body.split(sep)
            k = b % len(cells)
            if op == "set_field":
                cells[k] = token
            elif op == "drop_field":
                del cells[k]
            else:
                cells.insert(k, cells[k])
            lines[i] = sep.join(cells) + lines[i][len(body):]
        data = b"".join(lines)
    return data


def mutate_json(doc, picks):
    """Replace, delete or duplicate the value that each pick walks to."""
    for op, path, value in picks:
        parent, key = None, None
        node = doc
        for step in path:
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, list(keys)[step % len(node)]
            node = parent[key]
        value = copy.deepcopy(value)
        if parent is None:
            doc = value
        elif op == "replace":
            parent[key] = value
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, parent[key])
    return doc


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "run.cfg"
    cfg.write_text(SCENE)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(root)]) == 0
        assert main(["simulate", "--config", str(cfg), "--dump-frames", "2",
                     "--out-dir", str(root / "sim")]) == 0
    return root


def commands(kind: str, path: Path, valid: Path) -> list[list[str]]:
    """The subcommands that read an input of `kind` found at `path`."""
    cal, det = valid / "calibration.json", valid / "detections.csv"
    ann, trk = valid / "annotations.csv", valid / "tracklets.csv"
    cmds = {
        "detections.csv": [["track2d", "--detections", path],
                           ["detect", "--external", path]],
        "tracklets.csv": [["associate", "--tracklets", path,
                           "--calibration", cal],
                          ["evaluate", "--annotations", ann,
                           "--tracklets", path, "--view", "front"]],
        "tracklets3d.csv": [["stitch", "--tracklets3d", path]],
        "tracks.csv": [["evaluate", "--annotations", ann, "--tracks", path]],
        "annotations.csv": [["complexity", "--annotations", path],
                            ["evaluate", "--annotations", path,
                             "--tracks", valid / "tracks.csv"]],
        "calibration.json": [["associate", "--tracklets", trk,
                              "--calibration", path]],
        "run.cfg": [["track2d", "--detections", det, "--config", path],
                    ["associate", "--tracklets", trk, "--calibration", cal,
                     "--config", path],
                    ["stitch", "--tracklets3d", valid / "tracklets3d.csv",
                     "--config", path],
                    ["evaluate", "--annotations", ann,
                     "--tracks", valid / "tracks.csv", "--config", path]],
        "top_000001.pgm": [["detect", "--frames-dir", path.parent]],
    }[kind]
    return [[str(arg) for arg in cmd] for cmd in cmds]


def non_finite_numbers(path: Path) -> list[str]:
    """The nan and inf values in a CSV or JSON output file."""
    text = path.read_text()
    if path.suffix == ".json":
        found = []
        json.loads(text, parse_constant=found.append)
        return found
    return [cell for line in text.splitlines() if not line.startswith("#")
            for cell in line.split(",") if not_finite(cell)]


def not_finite(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


def run_fuzzed(valid: Path, kind: str, data) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        source = valid / ("sim/frames" if kind.endswith(".pgm") else "")
        path = tmp / kind
        if kind.endswith(".pgm"):
            shutil.copytree(source, tmp, dirs_exist_ok=True)
        original = (source / kind).read_bytes()
        if kind == "calibration.json" and data.draw(st.booleans()):
            picks = data.draw(st.lists(st.tuples(
                st.sampled_from(["replace", "delete", "duplicate"]),
                st.lists(st.integers(0, 20), max_size=4),
                st.sampled_from(JSON_VALUES)), min_size=1, max_size=3))
            path.write_text(json.dumps(mutate_json(json.loads(original),
                                                   picks)))
        else:
            ops = data.draw(st.lists(st.tuples(
                st.sampled_from(OPS), st.integers(0, 10**6),
                st.integers(0, 10**6), st.sampled_from(TOKENS)),
                min_size=1, max_size=3))
            sep = b"=" if kind.endswith(".cfg") else (
                b" " if kind.endswith(".pgm") else b",")
            path.write_bytes(mutate(original, ops, sep))
        for cmd in commands(kind, path, valid):
            out = tmp / "out"
            shutil.rmtree(out, ignore_errors=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([*cmd, "--out-dir", str(out)])
            assert code in (0, 2), cmd
            if code == 2:
                assert err.getvalue().startswith("error: "), cmd
                continue
            for written in out.iterdir():
                assert non_finite_numbers(written) == [], (cmd, written)


KINDS = ["detections.csv", "tracklets.csv", "tracklets3d.csv", "tracks.csv",
         "annotations.csv", "calibration.json", "run.cfg", "top_000001.pgm"]
FUZZ = dict(deadline=None, derandomize=True)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, **FUZZ)
@given(data=st.data())
def test_fuzzed_input_exits_0_or_2(valid, kind, data):
    run_fuzzed(valid, kind, data)


@pytest.mark.slow
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=400, **FUZZ)
@given(data=st.data())
def test_fuzzed_input_exits_0_or_2_at_length(valid, kind, data):
    run_fuzzed(valid, kind, data)
