"""Tracemalloc peaks of every stage on a 12 000-frame recording.

Each stage's peak must stay within a multiple of the size of the files it
reads. The multiples were measured when this test was written (Python
3.11, numpy 2.4) and rounded up to the next 0.5; a later change may
tighten a bound, but never loosen one. Associate and stitch were measured
again once nodes, 3D tracklets and tracks held their points as columns
(2.46 and 2.73, from 7.34-7.56 and 7.58-8.19). `simulate` reads no file,
so its bound is on the files it writes. `detect --frames-dir` is left
out: the recording's frames would be 7.7 GB of PGM.
"""

import gc
import tracemalloc

import pytest
# Loaded here, before any stage is measured: the stages load them at their
# first call, and a stage's peak is its data, not a one-off module import
# (scipy.optimize alone is about 25 MiB under tracemalloc).
import scipy.ndimage  # noqa: F401
import scipy.optimize  # noqa: F401

from stereomot import cli
from stereomot.config import PipelineConfig

# stage: (bound, the files its peak is measured against)
BOUNDS = {
    "simulate": (2.0, ("annotations.csv", "detections.csv")),
    "detect_external": (3.5, ("detections.csv",)),
    "track2d": (3.0, ("detections.csv",)),
    "associate": (2.5, ("tracklets.csv", "calibration.json")),
    "stitch": (3.0, ("tracklets3d.csv",)),
    "evaluate": (3.0, ("annotations.csv", "tracks.csv")),
    "evaluate_2d": (2.0, ("annotations.csv", "tracklets.csv")),
    "complexity": (3.5, ("annotations.csv",)),
}


@pytest.mark.slow
def test_stage_peaks_stay_within_a_multiple_of_their_inputs(tmp_path):
    cfg = PipelineConfig.defaults().with_overrides(
        n_fish=5, duration_s=200.0, seed=0)
    out, ext = tmp_path, tmp_path / "external"
    ext.mkdir()
    runs = {
        "simulate": lambda: cli.stage_simulate(cfg, out),
        "detect_external": lambda: cli.stage_detect_external(
            cfg, out / "detections.csv", ext),
        "track2d": lambda: cli.stage_track2d(
            cfg, out / "detections.csv", out),
        "associate": lambda: cli.stage_associate(
            cfg, out / "tracklets.csv", out / "calibration.json", out),
        "stitch": lambda: cli.stage_stitch(cfg, out / "tracklets3d.csv", out),
        "evaluate": lambda: cli.stage_evaluate(
            cfg, out / "annotations.csv", out, tracks_path=out / "tracks.csv"),
        "evaluate_2d": lambda: cli.stage_evaluate(
            cfg, out / "annotations.csv", out,
            tracklets_path=out / "tracklets.csv", view="top"),
        "complexity": lambda: cli.stage_complexity(
            cfg, out / "annotations.csv", out),
    }
    multiples = {}
    for stage, run in runs.items():
        gc.collect()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        files = BOUNDS[stage][1]
        multiples[stage] = peak / sum((out / f).stat().st_size
                                      for f in files)
    assert all(multiples[s] <= bound for s, (bound, _) in BOUNDS.items()), {
        s: round(m, 2) for s, m in multiples.items()}
