"""Golden guards: the CLI's outputs must stay byte-identical across
refactors. The expected text and digests were captured from the code
before the refactor that introduced this file; regenerate them only for a
change that is meant to alter outputs, and say so in CHANGES.md."""

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from stereomot import cli
from stereomot.cli import main
from stereomot.config import PipelineConfig
from stereomot.crossview import build_graph
from stereomot.formats import (read_pgm, read_tracklets3d_csv,
                               read_tracklets_csv, read_tracks_csv)
from stereomot.geometry import load_calibration, triangulate_batch

DATA = Path(__file__).parent / "data"
PIPELINE = json.loads((DATA / "pipeline_sha256.json").read_text())
DETECT_FRAMES = json.loads((DATA / "detect_frames_sha256.json").read_text())
EVALUATE_2D = json.loads((DATA / "evaluate_2d_sha256.json").read_text())


def assert_outputs_agree(out: Path) -> None:
    """The pipeline's outputs agree across files:

    - each 3D tracklet point has both source ids, and each source id names
      a 2D tracklet of its view with a row at that frame;
    - each 3D point is, bit for bit, `triangulate_batch` of its top head
      and its front candidate with the least error (the first on ties), in
      the batch `node_weight` makes for the pair: every frame the two 2D
      tracklets share, each top head against each candidate of its frame;
    - each track point is, bit for bit, a 3D tracklet point of its frame,
      and no 3D tracklet point is in two tracks."""
    tracklets = {(t.view, t.id): t
                 for t in read_tracklets_csv(out / "tracklets.csv")}
    rows = {key: set(t.frames.tolist()) for key, t in tracklets.items()}
    tracklets3d = read_tracklets3d_csv(out / "tracklets3d.csv")
    by_pair = {}  # (top id, front id) -> frame -> 3D point
    for t in tracklets3d:
        for f, p in t.points.items():
            assert None not in t.sources.get(f, (None,)), (t.id, f)
            by_pair.setdefault(t.sources[f], {})[f] = p
        for f, ids in t.sources.items():
            for view, tid in zip(("top", "front"), ids):
                assert tid is None or f in rows.get((view, tid), ()), (
                    t.id, f, view, tid)

    rig = load_calibration(out / "calibration.json")
    for (top_id, front_id), points in by_pair.items():
        top, front = tracklets["top", top_id], tracklets["front", front_id]
        heads = dict(zip(top.frames.tolist(), top.detections.head.tolist()))
        cands = dict(zip(front.frames.tolist(),
                         front.detections.cands.tolist()))
        batch = [(f, c) for f in sorted(heads.keys() & cands)
                 for c in cands[f] if not math.isnan(c[0])]
        pts, errs = triangulate_batch(np.array([heads[f] for f, _ in batch]),
                                      np.array([c for _, c in batch]),
                                      rig.top, rig.front)
        best = {}  # frame -> its first row of least error
        for k, (f, _) in enumerate(batch):
            if f not in best or errs[k] < errs[best[f]]:
                best[f] = k
        for f, p in points.items():
            assert pts[best[f]].tobytes() == p.tobytes(), (top_id, front_id, f)

    points = {(f, p.tobytes()) for t in tracklets3d
              for f, p in t.points.items()}
    tracked = Counter()
    for track in read_tracks_csv(out / "tracks.csv"):
        for f, p in track.points.items():
            assert (f, p.tobytes()) in points, (track.fish_id, f)
            tracked[f, p.tobytes()] += 1
    shared = sorted(f for (f, _), n in tracked.items() if n > 1)
    assert not shared, f"points in two tracks at frames {shared}"


def test_defaults_text_is_unchanged(capsys):
    assert main(["defaults"]) == 0
    assert capsys.readouterr().out == (DATA / "defaults.txt").read_text()


@pytest.mark.parametrize("name", sorted(PIPELINE))
def test_pipeline_outputs_are_unchanged(name, tmp_path, capsys):
    case = PIPELINE[name]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n"
                                for k, v in case["config"].items()))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    assert_outputs_agree(out)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == case["sha256"]

    # evaluate --tracklets --view on the pipeline's 2D tracklets. On jitter
    # the scores carry IDSW, Frag and MTBF failures in both views.
    for view, digest in EVALUATE_2D.get(name, {}).items():
        report = tmp_path / view
        assert main(["evaluate", "--config", str(cfg_path),
                     "--annotations", str(out / "annotations.csv"),
                     "--tracklets", str(out / "tracklets.csv"),
                     "--view", view, "--out-dir", str(report)]) == 0
        assert hashlib.sha256((report / "report.json").read_bytes()
                              ).hexdigest() == digest, view

    if name == "jitter":
        # The jitter scene is the one that reaches DAG edges, and with them
        # multi-node paths through extract_3d_tracklets.
        cfg = PipelineConfig.from_file(cfg_path)
        tracklets = read_tracklets_csv(out / "tracklets.csv")
        graph = build_graph([t for t in tracklets if t.view == "top"],
                            [t for t in tracklets if t.view == "front"],
                            load_calibration(out / "calibration.json"),
                            cfg.tank(), cfg.assoc_params(),
                            fps=cfg.get("fps"))
        assert len(graph.edges) > 0


@pytest.fixture(scope="module")
def golden_frames(tmp_path_factory):
    """Each detect_frames case's config file and dumped frames directory,
    from `simulate --dump-frames`."""
    root = tmp_path_factory.mktemp("golden_frames")
    cases = {}
    for name, case in DETECT_FRAMES.items():
        cfg_path = root / f"{name}.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n"
                                    for k, v in case["config"].items()))
        sim = root / name
        assert main(["simulate", "--config", str(cfg_path), "--out-dir",
                     str(sim), "--dump-frames", str(case["dump_frames"])]) == 0
        cases[name] = (cfg_path, sim / "frames")
    return cases


def test_frame_detector_output_is_unchanged(golden_frames, tmp_path):
    # detect --frames-dir on the dumped PGMs, for every case: the default
    # grid, a sampled background (n_bg below the frame count), a grid step
    # that does not divide the frame, and the full 800-row grid, which is
    # no multiple of the median's strips.
    got = {}
    for name, (cfg_path, frames) in golden_frames.items():
        det = tmp_path / name
        assert main(["detect", "--config", str(cfg_path), "--out-dir",
                     str(det), "--frames-dir", str(frames)]) == 0
        got[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(det.iterdir())}
    assert got == {name: case["sha256"]
                   for name, case in DETECT_FRAMES.items()}


@pytest.mark.parametrize("name", ["default", "sampled_bg"])
def test_detect_frames_reads_each_file_once(name, golden_frames, tmp_path,
                                            monkeypatch, capsys):
    # `default` samples every frame for the background (n_bg is at least
    # the frame count), `sampled_bg` only some: either way each file is
    # read once, and sampled frames are detected from the background stack.
    cfg_path, frames = golden_frames[name]
    paths = sorted(frames.iterdir())
    n_bg = PipelineConfig.from_file(cfg_path).get("detect.n_bg")
    assert (n_bg >= len(paths) // 2) == (name == "default")
    reads = Counter()
    read_pgm = cli.read_pgm
    monkeypatch.setattr(cli, "read_pgm", lambda path: reads.update(
        [Path(path).name]) or read_pgm(path))
    assert main(["detect", "--config", str(cfg_path), "--out-dir",
                 str(tmp_path / "det"), "--frames-dir", str(frames)]) == 0
    assert reads == Counter(p.name for p in paths)

    # A frame of another size is still refused, naming the file, whether
    # it is sampled (the last frame always is) or read for detection only
    # (frame 1 of `sampled_bg`, whose sample steps over it).
    h, w = read_pgm(paths[0]).shape
    names = [f"top_{len(paths) // 2 - 1:06d}.pgm"]
    if name == "sampled_bg":
        names.append("top_000001.pgm")
    for bad_name in names:
        bad = tmp_path / f"bad_{bad_name}"
        bad.mkdir()
        for p in paths:
            (bad / p.name).symlink_to(p)
        (bad / bad_name).unlink()
        (bad / bad_name).write_bytes(b"P5 4 4 255\n" + bytes(16))
        assert main(["detect", "--config", str(cfg_path), "--out-dir",
                     str(tmp_path / "out"), "--frames-dir", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad / bad_name}: frame is 4x4 px, expected {w}x{h} "
            f"px\n")


@pytest.mark.parametrize("name", ["default", "sampled_bg"])
def test_detect_frames_detects_each_frame_once(name, golden_frames, tmp_path,
                                               monkeypatch):
    # Sampled and unsampled frames alike reach the detector through
    # `cli.detect_top` / `cli.detect_front`, on the background's grid: one
    # call per frame file and view. A call's frame is the file whose pixels,
    # on the grid, are its grid.
    cfg_path, frames = golden_frames[name]
    d = PipelineConfig.from_file(cfg_path).get("detect.downsample")
    grids = {p.name: read_pgm(p)[::d, ::d] for p in frames.iterdir()}
    calls = Counter()
    for view in ("top", "front"):
        detector = getattr(cli, f"detect_{view}")

        def counted(grid, bg, params, _view=view, _detector=detector):
            assert grid.shape == bg.shape
            calls.update(name for name, pixels in grids.items()
                         if name.startswith(_view)
                         and np.array_equal(pixels, grid))
            return _detector(grid, bg, params)

        monkeypatch.setattr(cli, f"detect_{view}", counted)
    assert main(["detect", "--config", str(cfg_path), "--out-dir",
                 str(tmp_path / "det"), "--frames-dir", str(frames)]) == 0
    assert calls == Counter(p.name for p in frames.iterdir())
