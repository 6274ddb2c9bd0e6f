"""Golden guards: the CLI's outputs must stay byte-identical across
refactors. The expected text and digests were captured from the code
before the refactor that introduced this file; regenerate them only for a
change that is meant to alter outputs, and say so in CHANGES.md."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from stereomot import cli
from stereomot.cli import main
from stereomot.config import PipelineConfig
from stereomot.crossview import build_graph
from stereomot.formats import read_tracklets_csv
from stereomot.geometry import load_calibration

DATA = Path(__file__).parent / "data"
PIPELINE = json.loads((DATA / "pipeline_sha256.json").read_text())
DETECT_FRAMES = json.loads((DATA / "detect_frames_sha256.json").read_text())
EVALUATE_2D = json.loads((DATA / "evaluate_2d_sha256.json").read_text())


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
    # call per frame file and view.
    cfg_path, frames = golden_frames[name]
    calls = Counter()
    for view in ("top", "front"):
        detector = getattr(cli, f"detect_{view}")

        def counted(grid, bg, params, frame_index, _view=view,
                    _detector=detector):
            assert grid.shape == bg.shape
            calls.update([f"{_view}_{frame_index:06d}.pgm"])
            return _detector(grid, bg, params, frame_index=frame_index)

        monkeypatch.setattr(cli, f"detect_{view}", counted)
    assert main(["detect", "--config", str(cfg_path), "--out-dir",
                 str(tmp_path / "det"), "--frames-dir", str(frames)]) == 0
    assert calls == Counter(p.name for p in frames.iterdir())
