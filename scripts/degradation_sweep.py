#!/usr/bin/env python3
"""Sweep detector degradation levels over seeded synthetic scenes.

For every (seed, drop_rate, jitter_px) cell the full pipeline runs on the
same underlying trajectories, so score differences are attributable to the
degradation alone. Writes one CSV row per cell and prints per-level
medians. Expect the median MOTA to fall as drop_rate rises.
"""

import argparse
import csv
import statistics
import sys
import time

from stereomot import (
    AssocParams,
    DegradeModel,
    SimConfig,
    StitchParams,
    Track2DParams,
    annotate,
    associate,
    build_graph,
    build_tracklets,
    degrade,
    evaluate_tracks,
    extract_3d_tracklets,
    perfect_detections,
    simulate,
)
from stereomot.geometry import VIEWS, TankBounds


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-fish", type=int, default=5)
    ap.add_argument("--duration", type=float, default=10.0, help="seconds")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--drop", default="0,0.1,0.3",
                    help="comma-separated dropout rates")
    ap.add_argument("--jitter", default="0",
                    help="comma-separated head jitter levels, px")
    ap.add_argument("--gate", type=float, default=0.5)
    ap.add_argument("--out", default="degradation_sweep.csv")
    return ap.parse_args()


def run_pipeline(gt, dets, rig, tank, n_fish, fps, gate):
    params = Track2DParams()
    per_view = {view: build_tracklets(dets[view], params, view=view)
                for view in VIEWS}
    graph = build_graph(per_view["top"], per_view["front"], rig, tank,
                        AssocParams(), fps=fps)
    tracks = associate(extract_3d_tracklets(graph), n_fish, StitchParams())
    return evaluate_tracks([(t.fish_id, t.frame, t.point) for t in tracks],
                           gt, gate)


def main():
    args = parse_args()
    drops = [float(v) for v in args.drop.split(",")]
    jitters = [float(v) for v in args.jitter.split(",")]
    tank = TankBounds()

    rows = []
    t0 = time.perf_counter()
    for seed in range(args.seeds):
        cfg = SimConfig(n_fish=args.n_fish, duration_s=args.duration,
                        fps=60.0, seed=seed)
        seq = simulate(cfg)
        gt = annotate(seq)
        clean = perfect_detections(gt)
        for drop in drops:
            for jitter in jitters:
                model = DegradeModel(drop_rate=drop, jitter_px=jitter)
                dets = (clean if drop == 0 and jitter == 0
                        else degrade(clean, model, seed=seed))
                r = run_pipeline(gt, dets, seq.rig, tank, args.n_fish,
                                 cfg.fps, args.gate)
                rows.append({"seed": seed, "drop_rate": drop,
                             "jitter_px": jitter, "mota": r.mota,
                             "motp": r.motp, "id_f1": r.id_f1,
                             "idsw": r.idsw, "frag": r.frag,
                             "mt": r.mt, "ml": r.ml})
        print(f"seed {seed}: {len(drops) * len(jitters)} cells, "
              f"{time.perf_counter() - t0:.1f} s elapsed", file=sys.stderr)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    print(f"\n{'drop':>6} {'jitter':>7} {'med MOTA':>9} {'med IDF1':>9} "
          f"{'med IDSW':>9}")
    for drop in drops:
        for jitter in jitters:
            cell = [r for r in rows
                    if r["drop_rate"] == drop and r["jitter_px"] == jitter]
            print(f"{drop:>6.2f} {jitter:>7.1f} "
                  f"{statistics.median(r['mota'] for r in cell):>9.2f} "
                  f"{statistics.median(r['id_f1'] for r in cell):>9.2f} "
                  f"{statistics.median(r['idsw'] for r in cell):>9.1f}")
    print(f"\nwrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
