"""Metamorphic relations of the tracking chain on a degraded scene.

Each test edits one input in a way whose effect on the outputs is known in
advance, runs the stages that read it on both files, and compares what
they write: `detections.csv` through `track2d`, `associate` and `stitch`,
and `tracks.csv` or `annotations.csv` through `evaluate` and
`complexity`. The last relation varies the configuration instead: on
small random scenes, `pipeline` writes the bytes the chained stages write.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereomot.cli import main
from test_golden import assert_outputs_agree

SCENE = """\
n_fish = 5
duration_s = 5.0
seed = 3
degrade.jitter_px = 3.0
degrade.drop_rate = 0.1
degrade.ghost_rate = 0.3
"""
OUTPUTS = ("tracklets.csv", "tracklets3d.csv", "tracks.csv")


def run_chain(cfg, calibration, detections, out):
    for args in (["track2d", "--detections", str(detections)],
                 ["associate", "--tracklets", str(out / "tracklets.csv"),
                  "--calibration", str(calibration)],
                 ["stitch", "--tracklets3d", str(out / "tracklets3d.csv")]):
        assert main([*args, "--config", str(cfg), "--out-dir", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in OUTPUTS}


def score(cfg, annotations, tracks, out):
    """report.json and complexity.json of `tracks` against `annotations`."""
    for args in (["evaluate", "--annotations", str(annotations),
                  "--tracks", str(tracks)],
                 ["complexity", "--annotations", str(annotations)]):
        assert main([*args, "--config", str(cfg), "--out-dir", str(out)]) == 0
    return {name: (out / name).read_bytes()
            for name in ("report.json", "complexity.json")}


def relabel(data: bytes, column: str, new_id) -> bytes:
    """The CSV file with every id in `column` replaced by new_id(id)."""
    comments, header, rows = split_csv(data)
    j = header.index(column)
    for row in rows:
        row[j] = str(new_id(int(row[j])))
    return join_csv(comments, header, rows)


def split_csv(data: bytes):
    """(comment lines, header, data rows as lists of cells) of a CSV file."""
    lines = data.decode().split("\n")
    comments = [line for line in lines if line.startswith("#")]
    rows = [line.rstrip("\r").split(",") for line in lines
            if line and not line.startswith("#")]
    return comments, rows[0], rows[1:]


def join_csv(comments, header, rows) -> bytes:
    return "".join([c + "\n" for c in comments]
                   + [",".join(r) + "\r\n" for r in [header, *rows]]).encode()


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("scene")
    cfg = root / "scene.cfg"
    cfg.write_text(SCENE)
    assert main(["simulate", "--config", str(cfg), "--out-dir",
                 str(root)]) == 0
    base = root / "base"
    outputs = run_chain(cfg, root / "calibration.json",
                        root / "detections.csv", base)
    return root, cfg, outputs


def test_shifting_frames_shifts_every_output_frame(scene, tmp_path):
    root, cfg, base = scene
    k = 1000
    comments, header, rows = split_csv((root / "detections.csv").read_bytes())
    for row in rows:
        row[0] = str(int(row[0]) + k)
    shifted = tmp_path / "detections.csv"
    shifted.write_bytes(join_csv(comments, header, rows))
    got = run_chain(cfg, root / "calibration.json", shifted, tmp_path)

    for name in OUTPUTS:
        comments, header, rows = split_csv(base[name])
        column = header.index("frame")
        for row in rows:
            row[column] = str(int(row[column]) + k)
        assert got[name] == join_csv(comments, header, rows), name


def test_shuffling_rows_within_a_frame_relabels_tracklets_only(scene,
                                                               tmp_path):
    root, cfg, base = scene
    comments, header, rows = split_csv((root / "detections.csv").read_bytes())
    rng = np.random.default_rng(0)
    groups: dict = {}
    for row in rows:
        groups.setdefault((row[1], int(row[0])), []).append(row)
    shuffled = []
    for group in groups.values():
        shuffled.extend(group[i] for i in rng.permutation(len(group)))
    assert shuffled != rows
    path = tmp_path / "detections.csv"
    path.write_bytes(join_csv(comments, header, shuffled))
    got = run_chain(cfg, root / "calibration.json", path, tmp_path)

    def without_ids(data):
        # Each tracklet as its view and its rows without the id column.
        tracklets: dict = {}
        for row in split_csv(data)[2]:
            tracklets.setdefault((row[1], row[0]), []).append(tuple(row[2:]))
        return sorted((view, rows) for (view, _), rows in tracklets.items())

    assert got["tracklets.csv"] != base["tracklets.csv"]
    assert without_ids(got["tracklets.csv"]) == without_ids(
        base["tracklets.csv"])
    assert got["tracks.csv"] == base["tracks.csv"]


def test_permuting_track_ids_changes_no_score(scene, tmp_path):
    root, cfg, base = scene
    tracks = root / "base" / "tracks.csv"
    want = score(cfg, root / "annotations.csv", tracks, tmp_path)
    assert json.loads(want["report.json"])["n_matches"] > 0
    _, header, rows = split_csv(base["tracks.csv"])
    ids = sorted({int(row[header.index("fish_id")]) for row in rows})
    assert len(ids) > 1
    shift = dict(zip(ids, ids[1:] + ids[:1]))
    permuted = tmp_path / "tracks.csv"
    permuted.write_bytes(relabel(base["tracks.csv"], "fish_id",
                                 shift.__getitem__))
    got = score(cfg, root / "annotations.csv", permuted, tmp_path)
    assert got == want


def test_increasing_fish_relabel_changes_no_score(scene, tmp_path):
    root, cfg, base = scene
    tracks = root / "base" / "tracks.csv"
    want = score(cfg, root / "annotations.csv", tracks, tmp_path)
    annotations = tmp_path / "annotations.csv"
    annotations.write_bytes(relabel(
        (root / "annotations.csv").read_bytes(), "fish_id",
        lambda i: 3 * i + 10))
    got = score(cfg, annotations, tracks, tmp_path)
    assert got == want


@st.composite
def small_configs(draw) -> str:
    """A config file for a scene of at most 3 fish and 30 frames, with
    random degradation and tracker settings."""
    values = {
        "seed": draw(st.integers(0, 2**31 - 1)),
        "n_fish": draw(st.integers(1, 3)),
        "duration_s": draw(st.sampled_from([0.25, 0.5])),
        "degrade.jitter_px": draw(st.sampled_from([0.0, 1.0, 3.0])),
        "degrade.drop_rate": draw(st.sampled_from([0.0, 0.1, 0.3])),
        "degrade.ghost_rate": draw(st.sampled_from([0.0, 0.5])),
        "track2d.tau_k": draw(st.integers(1, 10)),
        "track2d.front_mode": draw(st.sampled_from(
            ["mahalanobis-centroid", "euclidean-head"])),
        "assoc.alpha": draw(st.integers(1, 10)),
        "stitch.top_fraction": draw(st.sampled_from([0.2, 0.5, 1.0])),
    }
    return "".join(f"{k} = {v}\n" for k, v in values.items())


@settings(max_examples=20, deadline=None, derandomize=True)
@given(small_configs())
def test_pipeline_equals_the_chained_stages(tmp_path_factory, text):
    root = tmp_path_factory.mktemp("config")
    cfg = root / "run.cfg"
    cfg.write_text(text)
    whole, parts = root / "whole", root / "parts"
    d = str(parts)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(whole)]) == 0
        for args in (["simulate"],
                     ["track2d", "--detections", f"{d}/detections.csv"],
                     ["associate", "--tracklets", f"{d}/tracklets.csv",
                      "--calibration", f"{d}/calibration.json"],
                     ["stitch", "--tracklets3d", f"{d}/tracklets3d.csv"],
                     ["evaluate", "--annotations", f"{d}/annotations.csv",
                      "--tracks", f"{d}/tracks.csv"],
                     ["complexity", "--annotations", f"{d}/annotations.csv"]):
            assert main([*args, "--config", str(cfg), "--out-dir", d]) == 0
    assert_outputs_agree(parts)
    names = sorted(p.name for p in whole.iterdir())
    assert names == sorted(p.name for p in parts.iterdir())
    for name in names:
        assert (whole / name).read_bytes() == (parts / name).read_bytes(), (
            name, text)
