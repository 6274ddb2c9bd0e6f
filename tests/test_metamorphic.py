"""Metamorphic relations of the tracking chain on a degraded scene.

Each test edits `detections.csv` in a way whose effect on the outputs is
known in advance, runs `track2d`, `associate` and `stitch` on both files,
and compares what they write.
"""

import numpy as np
import pytest

from stereomot.cli import main

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
