"""Workload definitions: scene configurations and the timed stage chains.

A workload is one or more synthetic scenes. Each scene is written by the
`simulate` stage (the set-up) and then carried through the workload's
chain of `stereomot.cli.stage_*` calls, the same functions that
`stereomot pipeline` and the per-stage subcommands call. Scenes are made
from the run's `--seed` alone, so the same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

TRACKING_CHAIN = ("track2d", "associate", "stitch", "evaluate", "complexity")


@dataclass(frozen=True)
class Scene:
    seed: int
    config_text: str   # the scene's `--config` file
    n_frames: int      # frame pairs carried through the chain
    dump_frames: int   # frame pairs rendered by set-up (0: none)


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict               # config-file entries besides seed/duration
    duration_s: float            # full-length recording, seconds
    chain: tuple[str, ...]       # stages timed after set-up
    n_scenes: int = 1            # distinct scenes per run (seeds seed*n+k)
    setup_reps: int = 1          # simulate calls per scene, for setup_s
    render: bool = False         # set-up renders every frame pair
    smoke: dict = field(default_factory=dict)  # tiny-size settings

    def scenes(self, seed: int, scale: float = 1.0,
               smoke: bool = False) -> list[Scene]:
        """The run's scenes; `scale` shortens the recording (the traced run
        uses 0.5 for its scaling exponents)."""
        settings = {**self.settings, "duration_s": self.duration_s,
                    **(self.smoke if smoke else {})}
        settings["duration_s"] *= scale
        n_frames = round(settings["duration_s"]
                         * float(settings.get("fps", 60.0)))
        out = []
        for k in range(self.n_scenes):
            values = {**settings, "seed": seed * self.n_scenes + k}
            text = "".join(f"{key} = {v}\n" for key, v in values.items())
            out.append(Scene(seed=values["seed"], config_text=text,
                             n_frames=n_frames,
                             dump_frames=n_frames if self.render else 0))
        return out


WORKLOADS = {w.name: w for w in (
    # Exact detections of 5 free-swimming fish over 1200 frames: the
    # ground-truth and scoring layers dominate and grow faster than
    # linearly; the DAG has no edges and stitching has no gallery.
    Workload(
        name="long_clean",
        settings={"n_fish": 5},
        duration_s=20.0,
        chain=TRACKING_CHAIN,
        setup_reps=3,
        smoke={"duration_s": 2.0},
    ),
    # Ten fish with head-style (jittered, Euclidean-gated) detections: the
    # DAG gets edges and stitching gets galleries. Stitch time swings by
    # more than 10x between scenes, so a run scores five scenes and takes
    # each stage's median over them. Scenes last 5 s: at 10 s, about one
    # scene in a hundred has 16 or more 3D tracklets, and the seed-set
    # search of `track3d.select_initial`, exponential in that count, then
    # takes 40 s or more (see CHANGES.md).
    Workload(
        name="crowd_heads",
        settings={"n_fish": 10, "degrade.jitter_px": 3.0,
                  "track2d.front_mode": "euclidean-head"},
        duration_s=5.0,
        chain=TRACKING_CHAIN,
        n_scenes=5,
        smoke={"duration_s": 2.0},
    ),
    # 60 rendered 800x800 frame pairs at 5 fps (12 s, so the median
    # background is free of fish) through the frame detector only.
    Workload(
        name="frames_detect",
        settings={"n_fish": 5, "fps": 5.0},
        duration_s=12.0,
        chain=("detect",),
        setup_reps=3,
        render=True,
        # fewer frames over a long enough span for a fish-free background
        smoke={"duration_s": 8.0, "fps": 2.0},
    ),
)}


def run_stage(stage: str, cfg, scene: Path, out: Path,
              dump_frames: int = 0) -> None:
    """One `stereomot` stage call. Inputs live in `scene`, the chain's
    outputs in `out`; `simulate` writes the inputs themselves."""
    from stereomot import cli

    if stage == "simulate":
        cli.stage_simulate(cfg, scene, dump_frames)
    elif stage == "detect":
        cli.stage_detect_frames(cfg, scene / "frames", out)
    elif stage == "track2d":
        cli.stage_track2d(cfg, scene / "detections.csv", out)
    elif stage == "associate":
        cli.stage_associate(cfg, out / "tracklets.csv",
                            scene / "calibration.json", out)
    elif stage == "stitch":
        cli.stage_stitch(cfg, out / "tracklets3d.csv", out)
    elif stage == "evaluate":
        cli.stage_evaluate(cfg, scene / "annotations.csv", out,
                           tracks_path=out / "tracks.csv")
    elif stage == "complexity":
        cli.stage_complexity(cfg, scene / "annotations.csv", out)
    else:
        raise ValueError(f"unknown stage {stage!r}")


STAGE_OUTPUTS = {
    "simulate": ("calibration.json", "annotations.csv", "detections.csv"),
    "detect": ("detections.csv",),
    "track2d": ("tracklets.csv",),
    "associate": ("tracklets3d.csv",),
    "stitch": ("tracks.csv",),
    "evaluate": ("report.json",),
    "complexity": ("complexity.json",),
}
