#!/usr/bin/env python3
"""Occlusion-free smoke run: simulate, track, stitch, and score one scene.

Fish are confined to disjoint x slabs so the views never overlap, which
makes the expected outcome exact: MOTA 100, zero identity switches, zero
fragmentations. Useful as a first check after touching any stage.
"""

import argparse
import sys
import time

from stereomot import (
    AssocParams,
    StitchParams,
    Track2DParams,
    annotate,
    associate,
    build_graph,
    build_tracklets,
    complexity_report,
    evaluate_tracks,
    extract_3d_tracklets,
    perfect_detections,
    simulate,
)
from stereomot.config import PipelineConfig
from stereomot.geometry import VIEWS
from stereomot.formats import format_complexity_table, format_report_table


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-fish", type=int, default=2)
    ap.add_argument("--duration", type=float, default=15.0, help="seconds")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--gate", type=float, default=0.5, help="3D match gate, cm")
    return ap.parse_args()


def main():
    args = parse_args()
    cfg = PipelineConfig.defaults().with_overrides(**{
        "n_fish": args.n_fish,
        "duration_s": args.duration,
        "seed": args.seed,
        "sim.confine_axis_slabs": True,
    })

    stages = []

    def timed(label, fn):
        t0 = time.perf_counter()
        out = fn()
        stages.append((label, time.perf_counter() - t0))
        return out

    seq = timed("simulate", lambda: simulate(cfg.sim_config(), cfg.rig()))
    gt = timed("annotate", lambda: annotate(seq))
    flagged = sum(int(gt.occluded[v].sum()) for v in VIEWS)
    if flagged:
        print(f"warning: {flagged} occluded annotations; slabs too narrow "
              f"for this many fish?", file=sys.stderr)

    dets = timed("detections", lambda: perfect_detections(gt))
    params2d = Track2DParams()

    top, front = timed("track2d", lambda: [
        build_tracklets(dets[view], params2d, view=view)
        for view in VIEWS])
    graph = timed("associate", lambda: build_graph(
        top, front, seq.rig, cfg.tank(), AssocParams(), fps=cfg.get("fps")))
    tracks = timed("stitch", lambda: associate(
        extract_3d_tracklets(graph), args.n_fish, StitchParams()))
    report = timed("evaluate", lambda: evaluate_tracks(
        [(t.fish_id, t.frame, t.point) for t in tracks], gt, args.gate))

    print(format_report_table(report))
    print()
    print(format_complexity_table(complexity_report(gt)))
    print()
    for label, dt in stages:
        print(f"{label:<10} {dt:7.3f} s")

    ok = report.mota == 100.0 and report.idsw == 0 and report.frag == 0
    if not ok:
        print("clean run did not track perfectly", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
