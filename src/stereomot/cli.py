"""Command-line front end: every pipeline stage plus an end-to-end run.

Each subcommand reads its stage's inputs from disk and writes its outputs,
so any stage can be re-run in isolation; `pipeline` simply calls the same
stage functions in sequence, which keeps its outputs byte-identical to a
manual chain of subcommands.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, PipelineConfig, describe_defaults
from .crossview import build_graph, extract_3d_tracklets
from .detect import (DetectError, DetectionTable, detect_front, detect_top,
                     estimate_background, ingest_external_detections)
from .formats import (FormatError, format_complexity_table,
                      format_report_table, read_annotations_csv,
                      read_detections_csv, read_pgm, read_tracklets3d_csv,
                      read_tracklets_csv, read_tracks_csv,
                      write_annotations_csv, write_detections_csv, write_pgm,
                      write_report_json, write_tracklets3d_csv,
                      write_tracklets_csv, write_tracks_csv)
from .geometry import VIEWS, load_calibration, save_calibration
from .metrics import complexity_report, evaluate_tracks
from .simulator import annotate, degrade, perfect_detections, render, simulate
from .track2d import build_tracklets
from .track3d import associate


def _meta(cfg: PipelineConfig) -> dict:
    return {"seed": cfg.get("seed"), "fps": cfg.get("fps")}


# ---------------------------------------------------------------------------
# stage implementations (shared by the per-stage subcommands and `pipeline`)


def stage_simulate(cfg: PipelineConfig, out: Path,
                   dump_frames: int = 0) -> None:
    seq = simulate(cfg.sim_config(), cfg.rig())
    save_calibration(seq.rig, out / "calibration.json")
    gt = annotate(seq)
    write_annotations_csv(out / "annotations.csv", gt, _meta(cfg))
    dets = perfect_detections(gt)
    model = cfg.degrade_model()
    if model.drop_rate > 0 or model.jitter_px > 0 or model.ghost_rate > 0:
        dets = degrade(dets, model, cfg.get("seed"),
                       (cfg.get("image_width"), cfg.get("image_height")))
    write_detections_csv(out / "detections.csv", dets, _meta(cfg))
    if dump_frames:
        frame_dir = out / "frames"
        frame_dir.mkdir(exist_ok=True)
        for f in range(min(dump_frames, seq.config.n_frames)):
            top, front = render(seq, f)
            write_pgm(frame_dir / f"top_{f:06d}.pgm", top)
            write_pgm(frame_dir / f"front_{f:06d}.pgm", front)


def _frame_paths(frames_dir: Path, view: str):
    """Frame numbers and paths of the view's `{view}_<digits>.pgm` files,
    in frame order; the number in the name is the frame number."""
    found: dict[int, Path] = {}
    for path in frames_dir.glob(f"{view}_*.pgm"):
        m = re.fullmatch(rf"{view}_([0-9]+)\.pgm", path.name)
        if not m:
            raise DetectError(f"{path}: frame file name is not "
                              f"{view}_<digits>.pgm")
        f = int(m.group(1))
        if f in found:
            raise DetectError(f"{path}: frame {f} is also in {found[f]}")
        found[f] = path
    if not found:
        raise DetectError(f"no {view}_*.pgm frames found in {frames_dir}")
    numbers, paths = zip(*sorted(found.items()))
    return numbers, paths


def _read_frame(path, shape: tuple[int, ...]) -> np.ndarray:
    """The PGM at `path`, which must have `shape`."""
    img = read_pgm(path)
    if img.shape != shape:
        raise DetectError(f"{path}: frame is {img.shape[1]}x{img.shape[0]} "
                          f"px, expected {shape[1]}x{shape[0]} px")
    return img


def _detect_view(frames_dir: Path, view: str, params) -> DetectionTable:
    """One view's detections from its frame files. Its frame stack is let
    go when this returns, before the next view's is read."""
    d = params.downsample
    numbers, paths = _frame_paths(frames_dir, view)
    n_bg = min(params.n_bg, len(paths))
    sample = np.unique(np.linspace(0, len(paths) - 1, n_bg).astype(int))
    # Each file is read once. The sampled frames, on the detection grid,
    # are the only ones held at once: they make the background and are
    # detected from its stack; the others are read one at a time.
    first = read_pgm(paths[sample[0]])
    grid = first[::d, ::d]
    stack = np.empty((len(sample),) + grid.shape, dtype=np.uint8)
    stack[0] = grid
    for row, i in zip(stack[1:], sample[1:]):
        row[...] = _read_frame(paths[i], first.shape)[::d, ::d]
    bg = estimate_background(stack)
    rows = dict(zip(sample.tolist(), stack))
    detector = detect_top if view == "top" else detect_front
    found = [detector(rows[i] if i in rows
                      else _read_frame(paths[i], first.shape)[::d, ::d],
                      bg, params) for i in range(len(numbers))]
    table = DetectionTable.concat(found)  # each at frame 0
    table.frame = np.repeat(numbers, list(map(len, found)))
    return table


def stage_detect_frames(cfg: PipelineConfig, frames_dir: Path,
                        out: Path) -> None:
    params = cfg.detect_params()
    dets = {view: _detect_view(frames_dir, view, params) for view in VIEWS}
    write_detections_csv(out / "detections.csv", dets, _meta(cfg))


def stage_detect_external(cfg: PipelineConfig, external: Path,
                          out: Path) -> None:
    dets = ingest_external_detections(
        external, min_confidence=cfg.get("detect.min_confidence"))
    write_detections_csv(out / "detections.csv", dets, _meta(cfg))


def stage_track2d(cfg: PipelineConfig, detections_path: Path,
                  out: Path) -> None:
    detections = read_detections_csv(detections_path)
    params = cfg.track2d_params()
    tracklets = []
    for view in VIEWS:  # each view's table is let go once it is tracked
        tracklets.extend(build_tracklets(detections.pop(view), params,
                                         view=view))
    write_tracklets_csv(out / "tracklets.csv", tracklets, _meta(cfg))


def stage_associate(cfg: PipelineConfig, tracklets_path: Path,
                    calibration_path: Path, out: Path) -> None:
    tracklets = read_tracklets_csv(tracklets_path)
    rig = load_calibration(calibration_path)
    graph = build_graph([t for t in tracklets if t.view == "top"],
                        [t for t in tracklets if t.view == "front"],
                        rig, cfg.tank(), cfg.assoc_params(),
                        fps=cfg.get("fps"))
    write_tracklets3d_csv(out / "tracklets3d.csv",
                          extract_3d_tracklets(graph), _meta(cfg))


def stage_stitch(cfg: PipelineConfig, tracklets3d_path: Path,
                 out: Path) -> None:
    tracklets = read_tracklets3d_csv(tracklets3d_path)
    tracks = associate(tracklets, cfg.get("n_fish"), cfg.stitch_params())
    write_tracks_csv(out / "tracks.csv", tracks, _meta(cfg))


def stage_evaluate(cfg: PipelineConfig, annotations_path: Path, out: Path,
                   tracks_path: Path | None = None,
                   tracklets_path: Path | None = None,
                   view: str | None = None) -> str:
    gt = read_annotations_csv(annotations_path)
    if tracklets_path is not None:
        if view not in VIEWS:
            raise ConfigError("2D evaluation needs --view top|front")
        pred = [(t.id, t.frames, t.detections.head)
                for t in read_tracklets_csv(tracklets_path) if t.view == view]
        gate = cfg.get("eval.dist_2d")
    else:
        pred = [(t.fish_id, t.frame, t.point)
                for t in read_tracks_csv(tracks_path)]
        gate, view = cfg.get("eval.dist_3d"), None
    try:
        report = evaluate_tracks(pred, gt, gate, view)
    except ValueError as e:  # the annotations hold no point to score
        raise FormatError(f"{annotations_path}: {e}") from None
    write_report_json(out / "report.json", report.to_dict(), _meta(cfg))
    return format_report_table(report)


def stage_complexity(cfg: PipelineConfig, annotations_path: Path,
                     out: Path) -> str:
    report = complexity_report(read_annotations_csv(annotations_path))
    write_report_json(out / "complexity.json", report.to_dict(), _meta(cfg))
    return format_complexity_table(report)


# ---------------------------------------------------------------------------
# argument parsing


def _load_cfg(args) -> PipelineConfig:
    cfg = (PipelineConfig.from_file(args.config) if args.config
           else PipelineConfig.defaults())
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.fps is not None:
        overrides["fps"] = args.fps
    return cfg.with_overrides(**overrides) if overrides else cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stereomot",
        description="Stereo 3D multi-object tracking pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text):  # a subcommand, with the options all take
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--fps", type=float, help="override frames per second")
        p.add_argument("--out-dir", default=".",
                       help="directory for output files")
        return p

    p = command("simulate", "generate a synthetic sequence")
    p.add_argument("--dump-frames", type=int, default=0, metavar="N",
                   help="also rasterize the first N frames as PGM")

    p = command("detect", "run detection on frames or ingest a CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--frames-dir", help="directory of top_/front_*.pgm frames")
    src.add_argument("--external", help="external detection CSV to ingest")

    p = command("track2d", "build per-view 2D tracklets")
    p.add_argument("--detections", required=True)

    p = command("associate", "associate 2D tracklets across views")
    p.add_argument("--tracklets", required=True)
    p.add_argument("--calibration", required=True)

    p = command("stitch", "stitch 3D tracklets into tracks")
    p.add_argument("--tracklets3d", required=True)

    p = command("evaluate", "score tracks against annotations")
    p.add_argument("--annotations", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--tracks", help="3D track CSV")
    src.add_argument("--tracklets", help="2D tracklet CSV (needs --view)")
    p.add_argument("--view", choices=VIEWS,
                   help="view for 2D tracklet evaluation")

    p = command("complexity", "occlusion complexity of annotations")
    p.add_argument("--annotations", required=True)

    command("pipeline", "simulate, track, stitch, and score")
    command("defaults", "print the canonical configuration")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "defaults":
            print(describe_defaults(), end="")
            return 0
        cfg = _load_cfg(args)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            stage_simulate(cfg, out, args.dump_frames)
        elif args.command == "detect":
            if args.frames_dir:
                stage_detect_frames(cfg, Path(args.frames_dir), out)
            else:
                stage_detect_external(cfg, Path(args.external), out)
        elif args.command == "track2d":
            stage_track2d(cfg, Path(args.detections), out)
        elif args.command == "associate":
            stage_associate(cfg, Path(args.tracklets),
                            Path(args.calibration), out)
        elif args.command == "stitch":
            stage_stitch(cfg, Path(args.tracklets3d), out)
        elif args.command == "evaluate":
            if args.tracks and args.view:
                raise ConfigError("--view selects the view of 2D tracklets "
                                  "and does not apply to --tracks")
            table = stage_evaluate(
                cfg, Path(args.annotations), out,
                tracks_path=Path(args.tracks) if args.tracks else None,
                tracklets_path=Path(args.tracklets) if args.tracklets else None,
                view=args.view)
            print(table)
        elif args.command == "complexity":
            print(stage_complexity(cfg, Path(args.annotations), out))
        elif args.command == "pipeline":
            stage_simulate(cfg, out)
            stage_track2d(cfg, out / "detections.csv", out)
            stage_associate(cfg, out / "tracklets.csv",
                            out / "calibration.json", out)
            stage_stitch(cfg, out / "tracklets3d.csv", out)
            print(stage_evaluate(cfg, out / "annotations.csv", out,
                                 tracks_path=out / "tracks.csv"))
            print()
            print(stage_complexity(cfg, out / "annotations.csv", out))
    except (ConfigError, FormatError, DetectError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
