import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereomot import Track3D, formats
from stereomot.cli import main
from stereomot.config import ConfigError, PipelineConfig
from stereomot.formats import (
    read_annotations_csv,
    read_detections_csv,
    read_tracklets_csv,
    write_detections_csv,
    write_tracklets_csv,
    write_tracks_csv,
)
from stereomot.geometry import default_rig, save_calibration

SMALL = """\
n_fish = 2
duration_s = 2.0
sim.confine_axis_slabs = true
"""


def write_cfg(tmp_path, text=SMALL, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_defaults_roundtrip(capsys):
    assert main(["defaults"]) == 0
    text = capsys.readouterr().out
    cfg = PipelineConfig.from_text(text)
    assert cfg.dump() == PipelineConfig.defaults().dump()
    assert PipelineConfig.from_text(cfg.dump()).values == cfg.values


def test_config_rejects_unknown_and_duplicate():
    with pytest.raises(ConfigError, match="<config>:2: unknown"):
        PipelineConfig.from_text("n_fish = 2\nn_fisch = 3\n")
    with pytest.raises(ConfigError, match=":3: duplicate"):
        PipelineConfig.from_text("n_fish = 2\n# note\nn_fish = 4\n")
    with pytest.raises(ConfigError, match="must be int"):
        PipelineConfig.from_text("n_fish = two\n")
    with pytest.raises(ConfigError, match="true or false"):
        PipelineConfig.from_text("sim.confine_axis_slabs = yes\n")
    with pytest.raises(ConfigError, match="expected 'name = value'"):
        PipelineConfig.from_text("just some words\n")


def test_config_comments_and_overrides():
    cfg = PipelineConfig.from_text("fps = 30.0  # halved\n\n# comment\n")
    assert cfg.get("fps") == 30.0
    assert cfg.get("n_fish") == 2  # untouched default
    assert cfg.with_overrides(seed=7).get("seed") == 7
    with pytest.raises(ConfigError, match="unknown"):
        cfg.with_overrides(bogus=1)


def test_euclidean_front_gate_materializes():
    cfg = PipelineConfig.from_text("track2d.front_mode = euclidean-head\n")
    assert cfg.get("track2d.delta_front") == 15.0
    explicit = PipelineConfig.from_text(
        "track2d.front_mode = euclidean-head\ntrack2d.delta_front = 3.0\n")
    assert explicit.get("track2d.delta_front") == 3.0
    # mahalanobis keeps the std-dev default
    assert PipelineConfig.defaults().get("track2d.delta_front") == 0.5


def test_euclidean_front_gate_from_overrides():
    # The same rule as a config file: setting the mode without a gate
    # takes the pixel default, and dump() round-trips it.
    mode = {"track2d.front_mode": "euclidean-head"}
    cfg = PipelineConfig.defaults().with_overrides(**mode)
    assert cfg.get("track2d.delta_front") == 15.0
    assert PipelineConfig.from_text(cfg.dump()).values == cfg.values
    explicit = PipelineConfig.defaults().with_overrides(
        **mode, **{"track2d.delta_front": 3.0})
    assert explicit.get("track2d.delta_front") == 3.0
    assert explicit.with_overrides(seed=7).get("track2d.delta_front") == 3.0


def test_simulate_writes_outputs(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out),
                 "--dump-frames", "2"]) == 0
    assert (out / "calibration.json").is_file()
    gt = read_annotations_csv(out / "annotations.csv")
    assert gt.n_frames == 120 and gt.n_fish == 2
    dets = read_detections_csv(out / "detections.csv")
    n_dets = sum(map(len, dets.values()))
    assert n_dets == 120 * 2 * 2  # frames x fish x views
    for view in ("top", "front"):
        for f in range(2):
            assert (out / "frames" / f"{view}_{f:06d}.pgm").is_file()


def test_seed_override_changes_outputs(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b, c = (tmp_path / d for d in ("a", "b", "c"))
    for out, seed in ((a, "1"), (b, "1"), (c, "2")):
        assert main(["simulate", "--config", cfg, "--seed", seed,
                     "--out-dir", str(out)]) == 0
    read = lambda d: (d / "annotations.csv").read_text()
    assert read(a) == read(b)
    assert read(a) != read(c)


def test_pipeline_clean_run_perfect(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "MOTA" in stdout and "psi" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["mota"] == 100.0
    assert report["idsw"] == 0 and report["frag"] == 0
    complexity = json.loads((out / "complexity.json").read_text())
    assert complexity["psi"] == 0.0


def test_pipeline_matches_chained_stages(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    whole = tmp_path / "whole"
    parts = tmp_path / "parts"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(whole)]) == 0
    for argv in (
        ["simulate", "--config", cfg, "--out-dir", str(parts)],
        ["track2d", "--config", cfg, "--out-dir", str(parts),
         "--detections", str(parts / "detections.csv")],
        ["associate", "--config", cfg, "--out-dir", str(parts),
         "--tracklets", str(parts / "tracklets.csv"),
         "--calibration", str(parts / "calibration.json")],
        ["stitch", "--config", cfg, "--out-dir", str(parts),
         "--tracklets3d", str(parts / "tracklets3d.csv")],
        ["evaluate", "--config", cfg, "--out-dir", str(parts),
         "--annotations", str(parts / "annotations.csv"),
         "--tracks", str(parts / "tracks.csv")],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    for name in ("tracklets.csv", "tracklets3d.csv", "tracks.csv",
                 "report.json"):
        assert (whole / name).read_bytes() == (parts / name).read_bytes()


def test_evaluate_annotations_against_themselves(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "gtrun"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    gt = read_annotations_csv(out / "annotations.csv")
    tracks = []
    for j, i in enumerate(gt.fish_ids):
        f = np.flatnonzero(~np.isnan(gt.points3d[:, j, 0]))
        tracks.append(Track3D(fish_id=i, frame=f, point=gt.points3d[f, j]))
    write_tracks_csv(out / "gt_tracks.csv", tracks)
    assert main(["evaluate", "--config", cfg, "--out-dir", str(out),
                 "--annotations", str(out / "annotations.csv"),
                 "--tracks", str(out / "gt_tracks.csv")]) == 0
    assert "MOTA" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["mota"] == 100.0
    assert report["motp"] == 0.0
    assert report["id_f1"] == 100.0
    assert report["mt"] == 2


def test_evaluate_2d_tracklets(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run2d"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg, "--out-dir", str(out),
                 "--annotations", str(out / "annotations.csv"),
                 "--tracklets", str(out / "tracklets.csv"),
                 "--view", "top"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["recall"] == 100.0
    # missing --view is a usage error, not a crash
    assert main(["evaluate", "--config", cfg, "--out-dir", str(out),
                 "--annotations", str(out / "annotations.csv"),
                 "--tracklets", str(out / "tracklets.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_evaluate_refuses_view_with_tracks(tmp_path, capsys):
    # --view picks the view of 2D tracklets; 3D tracks have none.
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run3d"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    (out / "report.json").unlink()
    assert main(["evaluate", "--config", cfg, "--out-dir", str(out),
                 "--annotations", str(out / "annotations.csv"),
                 "--tracks", str(out / "tracks.csv"), "--view", "top"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --view selects the view of 2D tracklets "
                            "and does not apply to --tracks\n")
    assert not (out / "report.json").exists()


def test_evaluate_scores_a_prediction_with_no_track(tmp_path, capsys):
    # A tracks.csv with its header only, and a tracklets.csv with no row in
    # the view, predict nothing: every annotated point is a miss.
    cfg = write_cfg(tmp_path, "n_fish = 3\nduration_s = 2.0\nseed = 0\n")
    out = tmp_path / "empty"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert main(["track2d", "--config", cfg, "--out-dir", str(out),
                 "--detections", str(out / "detections.csv")]) == 0
    write_tracks_csv(out / "tracks.csv", [])
    write_tracklets_csv(out / "tracklets.csv", [
        t for t in read_tracklets_csv(out / "tracklets.csv")
        if t.view == "top"])
    for extra in (["--tracks", str(out / "tracks.csv")],
                  ["--tracklets", str(out / "tracklets.csv"),
                   "--view", "front"]):
        assert main(["evaluate", "--config", cfg, "--out-dir", str(out),
                     "--annotations", str(out / "annotations.csv"),
                     *extra]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["n_pred_tracks"], report["fp"],
                report["n_matches"]) == (0, 0, 0)
        assert report["fn"] == report["gt_total"] == 360
        assert report["mota"] == 0.0
    capsys.readouterr()


def test_detect_external_roundtrip(tmp_path):
    from stereomot.detect import DetectionTable

    raw = tmp_path / "external.csv"
    rows = {"top": DetectionTable.of(
        [(0.0, 0.0)] * 2, bbox=[(10.0, 20.0, 4.0, 6.0), (50.0, 60.0, 4.0, 6.0)],
        confidence=[99.0, 10.0])}
    write_detections_csv(raw, rows)
    out = tmp_path / "ingested"
    assert main(["detect", "--external", str(raw),
                 "--out-dir", str(out)]) == 0
    kept = read_detections_csv(out / "detections.csv")
    assert len(kept["front"]) == 0
    # The low-confidence row is filtered out, and the bbox center replaces
    # the head.
    assert kept["top"].head.tolist() == [[12.0, 23.0]]


def test_detect_frames_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, SMALL.replace("n_fish = 2", "n_fish = 1"))
    out = tmp_path / "fromframes"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out),
                 "--dump-frames", "30"]) == 0
    det_out = tmp_path / "redetected"
    assert main(["detect", "--config", cfg, "--out-dir", str(det_out),
                 "--frames-dir", str(out / "frames")]) == 0
    found = read_detections_csv(det_out / "detections.csv")
    by_view = {view: len(table) for view, table in found.items()}
    assert by_view["top"] >= 25 and by_view["front"] >= 25


def test_detect_frames_numbers_frames_by_file_name(tmp_path, capsys):
    # With top_000003.pgm missing, every other frame keeps the number in its
    # name. detect.n_bg = 1 takes frame 0 as the background of both scenes,
    # so their other rows must be the same.
    cfg = write_cfg(tmp_path, SMALL.replace("n_fish = 2", "n_fish = 1")
                    + "detect.n_bg = 1\n")
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out-dir", str(sim),
                 "--dump-frames", "8"]) == 0
    frames = sim / "frames"
    assert main(["detect", "--config", cfg, "--out-dir", str(tmp_path / "all"),
                 "--frames-dir", str(frames)]) == 0
    (frames / "top_000003.pgm").unlink()
    assert main(["detect", "--config", cfg, "--out-dir", str(tmp_path / "gap"),
                 "--frames-dir", str(frames)]) == 0

    def rows(name):
        found = read_detections_csv(tmp_path / name / "detections.csv")
        return [(f, view, tuple(head)) for view, t in found.items()
                for f, head in zip(t.frame.tolist(), t.head.tolist())]

    full, gap = rows("all"), rows("gap")
    assert {(3, "top"), (6, "top")} <= {r[:2] for r in full}
    assert gap == [r for r in full if r[:2] != (3, "top")]

    # A name without a frame number, a frame number given twice, and a
    # frame of another size are refused, naming the file.
    top1 = (frames / "top_000001.pgm").read_bytes()
    small = b"P5 4 4 255\n" + bytes(16)
    for name, data in [("top_x.pgm", top1), ("top_1.pgm", top1),
                       ("top_000009.pgm", small)]:
        bad = tmp_path / "bad"
        bad.mkdir()
        for p in frames.iterdir():
            (bad / p.name).write_bytes(p.read_bytes())
        (bad / name).write_bytes(data)
        assert main(["detect", "--config", cfg, "--out-dir",
                     str(tmp_path / "out"), "--frames-dir", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err, name
        for p in bad.iterdir():
            p.unlink()
        bad.rmdir()


def test_detect_frames_pgm_headers(tmp_path, capsys):
    # Frames whose headers carry two comment lines give the same
    # detections; a 0x0 frame is refused, naming the file.
    cfg = write_cfg(tmp_path, SMALL.replace("n_fish = 2", "n_fish = 1"))
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out-dir", str(sim),
                 "--dump-frames", "6"]) == 0
    frames = sim / "frames"
    assert main(["detect", "--config", cfg, "--out-dir", str(tmp_path / "a"),
                 "--frames-dir", str(frames)]) == 0
    for path in frames.iterdir():
        path.write_bytes(path.read_bytes().replace(
            b"P5\n", b"P5\n# rendered frame\n# second comment\n", 1))
    assert main(["detect", "--config", cfg, "--out-dir", str(tmp_path / "b"),
                 "--frames-dir", str(frames)]) == 0
    assert ((tmp_path / "a" / "detections.csv").read_bytes()
            == (tmp_path / "b" / "detections.csv").read_bytes())

    (frames / "top_000009.pgm").write_bytes(b"P5\n0 0\n255\n")
    assert main(["detect", "--config", cfg, "--out-dir", str(tmp_path / "c"),
                 "--frames-dir", str(frames)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "top_000009.pgm: image is 0x0 px" in err


def test_complexity_skips_zero_area_occluded_box(tmp_path, capsys):
    # Three fish occluded at once in the top view; fish 3's box has zero
    # width, so it has no overlap fraction of its own.
    path = tmp_path / "annotations.csv"
    path.write_text("".join(ANNOTATIONS_ROWS.format(bad="60.0")
                            .splitlines(True)[:2])
                    + "0,1,top,0.0,0.0,2.0,2.0,1.0,1.0,1,,,\n"
                    "0,2,top,1.0,1.0,2.0,2.0,2.0,2.0,1,,,\n"
                    "0,3,top,1.0,1.0,0.0,2.0,1.0,2.0,1,,,\n")
    assert main(["complexity", "--annotations", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "complexity.json").read_text())
    assert report["top"]["ibo"] == 0.25


def test_errors_exit_2(tmp_path, capsys):
    assert main(["track2d", "--detections",
                 str(tmp_path / "missing.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("whatever = 1\n")
    assert main(["simulate", "--config", str(bad_cfg),
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad.cfg:1" in err

    # Inputs the readers must refuse at their line: fps <= 0, a non-integer
    # or unallocatable n_frames, a non-integer tracklet id, a frame outside
    # [0, n_frames), a repeated (frame, fish_id, view) row, a negative box
    # size, and a repeated (tracklet_id, frame) 3D tracklet row.
    good = ANNOTATIONS_ROWS.format(bad="60.0")
    for command, flag, text, line in [
        ("complexity", "--annotations", ANNOTATIONS_ROWS.format(bad="0"), 1),
        ("complexity", "--annotations", "# n_frames: 2.5\n" + good, 1),
        ("complexity", "--annotations",
         "# n_frames: 1000000000000000\n" + good, 1),
        ("complexity", "--annotations",
         "# n_frames: 100000000000000000000\n" + good, 1),
        ("complexity", "--annotations",
         good.replace("\n0,1,top", "\n-1,1,top"), 3),
        ("complexity", "--annotations",
         "# n_frames: 1\n" + good.replace("\n0,1,top", "\n1,1,top"), 4),
        ("complexity", "--annotations", good + good.splitlines()[-1] + "\n", 4),
        ("complexity", "--annotations",
         good.replace(",2.0,2.0,", ",-2.0,2.0,"), 3),
        ("track2d", "--detections", DETECTIONS_ROWS.format(bad="1.0")
         + "1,top,1.0,2.0,0.0,0.0,2.0,-2.0,,,,,,,\n", 4),
        ("stitch", "--tracklets3d", TRACKLETS3D_ROWS.format(bad="1.0")
         + "0,2,1.0,2.0,3.0,x,0\n", 4),
        ("stitch", "--tracklets3d", TRACKLETS3D_ROWS.format(bad="1.0")
         + "0,0,1.5,2.5,3.5,0,0\n", 4),
    ]:
        path = tmp_path / "input.csv"
        path.write_text(text)
        assert main([command, flag, str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}:"), text

    # A repeated (frame, fish_id) row in tracks.csv.
    annotations = tmp_path / "annotations.csv"
    annotations.write_text(good)
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("frame,fish_id,x,y,z\n0,1,1.0,1.0,1.0\n"
                      "1,1,1.0,1.0,1.0\n0,1,2.0,2.0,2.0\n")
    assert main(["evaluate", "--annotations", str(annotations),
                 "--tracks", str(tracks),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {tracks}:4: duplicate row")

    # A field longer than the csv module reads, and bytes that are not
    # UTF-8, in tracks.csv and in a config file.
    for text, line in [("frame,fish_id,x,y,z\n0,1,1.0,1.0,1.0\n"
                        f"1,1,{'1' * 200_000},1.0,1.0\n", 3),
                       ("frame,fish_id,x,y,z\n0,1,1.0,1.0,1.0\n1,1,\udcff"
                        "1.0,1.0,1.0\n", 3)]:
        tracks.write_bytes(text.encode(errors="surrogateescape"))
        assert main(["evaluate", "--annotations", str(annotations),
                     "--tracks", str(tracks),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tracks}:{line}:")

    # Annotations that cover no frame, and frames without a row: the
    # commands that cannot score them name the file.
    header = "".join(good.splitlines(True)[:2])
    tracks.write_text("frame,fish_id,x,y,z\n0,1,1.0,1.0,1.0\n")
    for text, commands in [(header, ("complexity", "evaluate")),
                           ("# n_frames: 0\n" + header,
                            ("complexity", "evaluate")),
                           ("# n_frames: 5\n" + header, ("evaluate",))]:
        annotations.write_text(text)
        for command in commands:
            extra = ["--tracks", str(tracks)] if command == "evaluate" else []
            assert main([command, "--annotations", str(annotations), *extra,
                         "--out-dir", str(tmp_path / "out")]) == 2, text
            assert capsys.readouterr().err.startswith(
                f"error: {annotations}: "), text

    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"n_fish = 2\n# caf\xe9\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {cfg}:2: not UTF-8 text")

    # Bad config values: from a file, named by path:line and parameter;
    # from --fps, by parameter. A value that a parameter class refuses
    # names the class's key that the file set last.
    for text, where, message in [
            ("fps = inf\n", 1, "parameter 'fps' must be finite"),
            ("seed = 1\ntrack2d.delta_top = nan\n", 2,
             "parameter 'track2d.delta_top' must be finite"),
            ("eval.dist_3d = inf\n", 1, "parameter 'eval.dist_3d' must be "
             "finite"),
            ("eval.dist_2d = 0\n", 1, "parameter 'eval.dist_2d' must be "
             "positive"),
            ("n_fish = 1.5\n", 1, "parameter 'n_fish' must be int"),
            ("tank.x_min = 50\ntank.x_max = 10\n", 2,
             "parameter 'tank.x_max': tank bounds need min < max per axis"),
            ("tank.x_max = 10\nseed = 3\ntank.x_min = 50\n", 3,
             "parameter 'tank.x_min': tank bounds need min < max per axis"),
            ("detect.n_bg = 0\n", 1,
             "parameter 'detect.n_bg': DetectParams.n_bg must be positive")]:
        cfg = write_cfg(tmp_path, text, "badvalue.cfg")
        assert main(["pipeline", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2, text
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:{where}: {message}"), text
    assert main(["simulate", "--fps", "inf",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: parameter 'fps' must be finite")

    # Non-finite calibration numbers, named by camera and field.
    tracklets = tmp_path / "tracklets.csv"
    tracklets.write_text("tracklet_id,view,frame,x,y,c1x,c1y,c2x,c2y,c3x,"
                         "c3y,covxx,covxy,covyy\n")
    for view, key, value in [("top", "fx", float("inf")),
                             ("front", "translation", [0.0, float("nan"), 0.0])]:
        calibration = tmp_path / "calibration.json"
        save_calibration(default_rig(), calibration)
        doc = json.loads(calibration.read_text())
        camera = next(c for c in doc["cameras"] if c["view_id"] == view)
        camera[key] = value
        calibration.write_text(json.dumps(doc))
        assert main(["associate", "--tracklets", str(tracklets),
                     "--calibration", str(calibration),
                     "--out-dir", str(tmp_path / "out")]) == 2, key
        assert capsys.readouterr().err.startswith(
            f"error: {calibration}: calibration camera {view!r}: field "
            f"{key!r} must be finite"), key

    # Calibration files that are not the calibration JSON: each is named,
    # at its line when the JSON parser knows it.
    camera = json.loads(calibration.read_text())["cameras"][0]
    del camera["fx"]
    for text, where in [('{"cameras": 3}', ""), ("[]", ""),
                        ('{"cameras": [', ":1"),
                        (json.dumps({"cameras": [camera]}), ""),
                        ('{"cameras": []}\n\xff', ":2")]:
        calibration.write_bytes(text.encode("latin-1"))
        assert main(["associate", "--tracklets", str(tracklets),
                     "--calibration", str(calibration),
                     "--out-dir", str(tmp_path / "out")]) == 2, text
        assert capsys.readouterr().err.startswith(
            f"error: {calibration}{where}: "), text


def test_too_many_fish_to_allocate_exit_2(tmp_path, capsys, monkeypatch):
    # Under a 1 MiB limit a GroundTruth may hold 8594 frames of one fish,
    # so 4000 frames hold two: the row of a third fish is refused at its
    # line, before anything of the GroundTruth's size is allocated.
    monkeypatch.setattr(formats, "_MAX_GT_BYTES", 1 << 20)
    head, row = ANNOTATIONS_ROWS.format(bad="60.0").rsplit("\n", 2)[:2]
    path = tmp_path / "annotations.csv"
    path.write_text("# n_frames: 4000\n" + head + "\n" + "".join(
        row.replace("0,1,", f"0,{k},", 1) + "\n" for k in range(1, 5)))
    tracemalloc.start()
    try:
        code = main(["complexity", "--annotations", str(path),
                     "--out-dir", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}:6: 3 fish over 4000 frames are too many to allocate")
    assert peak < 1 << 20


def test_track2d_subcommand_builds_tracklets(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "t2d"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert main(["track2d", "--config", cfg, "--out-dir", str(out),
                 "--detections", str(out / "detections.csv")]) == 0
    tracklets = read_tracklets_csv(out / "tracklets.csv")
    assert {t.view for t in tracklets} == {"top", "front"}
    for t in tracklets:
        if t.view == "front":
            assert not np.isnan(t.detections.cov[0]).any()


# For each file a reader refuses a bad value in: the subcommand that reads
# it, its required columns and its integer columns.
READERS = {
    "detections.csv": (["track2d", "--detections"],
                       {"frame", "view", "x", "y"}, {"frame"}),
    "tracklets.csv": (["associate", "--tracklets"],
                      {"tracklet_id", "view", "frame", "x", "y"},
                      {"tracklet_id", "frame"}),
    "annotations.csv": (["complexity", "--annotations"],
                        {"frame", "fish_id", "view", "bbox_x", "bbox_y",
                         "bbox_w", "bbox_h", "head_x", "head_y", "occluded"},
                        {"frame", "fish_id", "occluded"}),
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    cfg = root / "run.cfg"
    cfg.write_text("n_fish = 2\nduration_s = 0.25\n")
    assert main(["pipeline", "--config", str(cfg), "--out-dir",
                 str(root)]) == 0
    return root


@st.composite
def planted_values(draw):
    """A file name and one or two (data row, column, bad value) plants on
    distinct rows, the rows as fractions of the file's row count."""
    name = draw(st.sampled_from(sorted(READERS)))
    plants = draw(st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                  st.integers(0, 99), st.integers(0, 99)),
        min_size=1, max_size=2))
    return name, plants


@settings(max_examples=80, deadline=None)
@given(planted_values())
def test_reader_names_the_first_bad_field(valid_inputs, case):
    name, plants = case
    command, required, ints = READERS[name]
    lines = (valid_inputs / name).read_bytes().decode().splitlines(True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[first].rstrip("\r\n").split(",")
    rows = len(lines) - first - 1
    bad = {}
    for where, col, pick in plants:
        row = first + 1 + int(where * rows)
        key = header[col % len(header)]
        values = ["x", "nan", "inf", "1e999"]
        values += [""] * (key in required) + ["side"] * (key == "view")
        bad.setdefault(row, (key, values[pick % len(values)]))
    for row, (key, value) in bad.items():
        cells = lines[row].rstrip("\r\n").split(",")
        cells[header.index(key)] = value
        lines[row] = ",".join(cells) + "\r\n"
    path = valid_inputs / f"bad_{name}"
    path.write_bytes("".join(lines).encode())

    row = min(bad)
    key, value = bad[row]
    if key == "view":
        message = f"view must be 'top' or 'front', got {value!r}"
    elif key in ints:
        message = f"field {key!r} must be an integer, got {value!r}"
    else:
        message = f"field {key!r} must be a number, got {value!r}"
    args = [*command, str(path), "--out-dir", str(valid_inputs / "out")]
    if name == "tracklets.csv":
        args += ["--calibration", str(valid_inputs / "calibration.json")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(args) == 2
    assert err.getvalue() == f"error: {path}:{row + 1}: {message}\n"


DETECTIONS_ROWS = """\
frame,view,x,y,bbox_x,bbox_y,bbox_w,bbox_h,confidence,c1x,c1y,c2x,c2y,c3x,c3y
0,top,1.0,2.0,,,,,,,,,,,
0,front,{bad},2.0,,,,,,,,,,,
"""
TRACKLETS3D_ROWS = """\
tracklet_id,frame,x,y,z,top_tracklet_id,front_tracklet_id
0,0,1.0,2.0,3.0,0,0
0,1,{bad},2.0,3.0,0,0
"""


ANNOTATIONS_ROWS = """\
# fps: {bad}
frame,fish_id,view,bbox_x,bbox_y,bbox_w,bbox_h,head_x,head_y,occluded,x3d,y3d,z3d
0,1,top,1.0,1.0,2.0,2.0,1.0,1.0,0,1.0,1.0,1.0
"""


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag,rows,line", [
    ("track2d", "--detections", DETECTIONS_ROWS, 3),
    ("stitch", "--tracklets3d", TRACKLETS3D_ROWS, 3),
    ("complexity", "--annotations", ANNOTATIONS_ROWS, 1),
])
def test_non_finite_input_exits_2(tmp_path, capsys, bad, command, flag,
                                  rows, line):
    path = tmp_path / "input.csv"
    path.write_text(rows.format(bad=bad))
    assert main([command, flag, str(path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}:")
    assert not list((tmp_path / "out").iterdir())


def test_duplicate_tracklet_row_exits_2(tmp_path, capsys):
    calibration = tmp_path / "calibration.json"
    save_calibration(default_rig(), calibration)
    path = tmp_path / "tracklets.csv"
    path.write_text(
        "tracklet_id,view,frame,x,y,c1x,c1y,c2x,c2y,c3x,c3y,"
        "covxx,covxy,covyy\n"
        "0,top,0,1.0,2.0,,,,,,,,,\n"
        "0,top,1,1.0,2.0,,,,,,,,,\n"
        "0,top,0,1.5,2.5,,,,,,,,,\n")
    assert main(["associate", "--tracklets", str(path),
                 "--calibration", str(calibration),
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:4: duplicate row")
