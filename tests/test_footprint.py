"""What a stage process holds: the modules it imports, and the frame stacks
the frame detector keeps at once.

Every stage runs as its own `stereomot` process, so a module imported by
the package is paid for by every stage. `scipy.optimize` (the assignment
solver of `track2d` and `evaluate`) and `scipy.ndimage` (the labelling of
`detect --frames-dir`) load at their first call instead.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import scipy.ndimage  # noqa: F401  (its import is not the detector's data)

from stereomot import cli
from stereomot.config import PipelineConfig
from stereomot.formats import read_pgm

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_no_scipy_solver_or_labeller():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, stereomot, stereomot.cli; print(sorted(m for m in "
            "('scipy.optimize', 'scipy.ndimage') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_frame_detector_holds_one_views_frame_stack_at_a_time(tmp_path):
    # 30 frame pairs at 2 fps: the median background is free of fish, and
    # every frame is sampled for it, so each view's stack is 30 frames on
    # the detection grid. The peak read 1.64 stacks when one view's stack
    # was let go before the next one's was read, and 2.46 when both were
    # held; the bound is 1.64 rounded up to the next 0.5.
    cfg = PipelineConfig.defaults().with_overrides(
        n_fish=2, fps=2.0, duration_s=15.0, seed=0, **{"detect.n_bg": 30})
    cli.stage_simulate(cfg, tmp_path, dump_frames=30)
    d = cfg.detect_params().downsample
    frame = read_pgm(tmp_path / "frames" / "top_000000.pgm")
    stack = 30 * frame[::d, ::d].nbytes
    gc.collect()
    tracemalloc.start()
    try:
        cli.stage_detect_frames(cfg, tmp_path / "frames", tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / stack <= 2.0, round(peak / stack, 2)
