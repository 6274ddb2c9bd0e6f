"""Child process of one benchmark run: set-up, timed chain, or traced run.

    python3 bench/worker.py '<json spec>'

The spec names the mode, the workload, the seed, the run's working
directory and the file to write the result to. Each mode runs in a fresh
process so that its peak resident memory and its warm-up belong to it
alone. Imports happen before any clock starts.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from stereomot.config import PipelineConfig  # noqa: E402

from tracer import MemoryProbe, Tracer  # noqa: E402
from workloads import STAGE_OUTPUTS, WORKLOADS, Scene, run_stage  # noqa: E402


def digest(path: Path) -> str:
    """sha256 of a file, or of every file of a directory in name order."""
    h = hashlib.sha256()
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def output_digests(scene_dir: Path, out: Path, stages) -> dict[str, str]:
    """Digests of the files `stages` wrote; the chain's are named out/..."""
    if stages == ("simulate",):
        names = list(STAGE_OUTPUTS["simulate"])
        if (scene_dir / "frames").is_dir():
            names.append("frames")
        return {n: digest(scene_dir / n) for n in names}
    return {f"out/{n}": digest(out / n)
            for s in stages for n in STAGE_OUTPUTS[s]}


class Runner:
    """Calls stages, timing each and recording every call as an operation."""

    def __init__(self):
        self.ops: list[dict] = []

    def chain(self, stages, scene: Scene, scene_dir: Path, out: Path,
              around=None) -> dict[str, float] | None:
        """Run `stages` in order; per-stage seconds, or None after a failure
        (the rest of the chain is still counted, as failed)."""
        cfg = PipelineConfig.from_file(scene_dir / "config.txt")
        out.mkdir(parents=True, exist_ok=True)
        times: dict[str, float] = {}
        failed = None
        for stage in stages:
            op = {"stage": stage, "scene": scene.seed, "ok": False}
            self.ops.append(op)
            if failed is not None:
                op["error"] = f"skipped after {failed} failed"
                continue
            try:
                with around(stage) if around else nullcontext():
                    start = time.perf_counter()
                    run_stage(stage, cfg, scene_dir, out, scene.dump_frames)
                    seconds = time.perf_counter() - start
            except Exception:  # a stage fault is a failed operation
                op["error"] = traceback.format_exc(limit=3)
                failed = stage
                continue
            op["ok"] = True
            op["seconds"] = times[stage] = seconds
        return None if failed else times


def prepare(scene: Scene, scene_dir: Path) -> None:
    scene_dir.mkdir(parents=True, exist_ok=True)
    (scene_dir / "config.txt").write_text(scene.config_text)


def mode_setup(spec: dict) -> dict:
    """simulate each scene `setup_reps` times; the inputs must not change."""
    wl = WORKLOADS[spec["workload"]]
    work = Path(spec["work"])
    runner = Runner()
    times, digests = [], {}
    for k, scene in enumerate(wl.scenes(spec["seed"], smoke=spec["smoke"])):
        scene_dir = work / f"scene{k}"
        prepare(scene, scene_dir)
        for _ in range(wl.setup_reps):
            t = runner.chain(("simulate",), scene, scene_dir, scene_dir)
            if t is None:
                break
            times.append(t["simulate"])
            digests.setdefault(k, []).append(
                output_digests(scene_dir, scene_dir, ("simulate",)))
    return {"ops": runner.ops, "setup_s": times, "digests": digests}


def mode_chain(spec: dict) -> dict:
    """Whole rounds over every scene's chain until `seconds` have passed."""
    wl = WORKLOADS[spec["workload"]]
    work = Path(spec["work"])
    scenes = wl.scenes(spec["seed"], smoke=spec["smoke"])
    runner = Runner()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < spec["seconds"]:
        this = []
        for k, scene in enumerate(scenes):
            scene_dir = work / f"scene{k}"
            out = scene_dir / "out"
            t = runner.chain(wl.chain, scene, scene_dir, out)
            this.append({"seconds": t, "digests": output_digests(
                scene_dir, out, wl.chain) if t else None})
        rounds.append(this)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"ops": runner.ops, "rounds": rounds, "peak_rss_mib": rss,
            "frames": [s.n_frames for s in scenes]}


STAGES = ("simulate", "detect", "track2d", "associate", "stitch",
          "evaluate", "complexity")


def mode_trace(spec: dict) -> dict:
    """Per-layer figures for the run's first scene.

    1. untraced set-up and chain rounds for `seconds`: the baseline that
       the tracing overhead is measured against;
    2. traced set-up and chain at full and at half length: spans, counts
       and per-stage scaling exponents;
    3. set-up and chain under tracemalloc: per-stage memory peaks.
    Every pass must write the same outputs as the untraced one.
    """
    wl = WORKLOADS[spec["workload"]]
    work = Path(spec["work"])
    scene = wl.scenes(spec["seed"], smoke=spec["smoke"])[0]
    half = wl.scenes(spec["seed"], scale=0.5, smoke=spec["smoke"])[0]
    runner = Runner()
    digests = {}

    def one_pass(name, sc, around=None, seconds=0.0):
        """Set-up, then chain rounds until `seconds` have passed (at least
        one); (set-up seconds, [per-stage seconds of each round])."""
        scene_dir = work / name
        prepare(sc, scene_dir)
        setup = runner.chain(("simulate",), sc, scene_dir, scene_dir, around)
        if setup is None:
            return None
        digests[name] = output_digests(scene_dir, scene_dir, ("simulate",))
        rounds = []
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < seconds:
            t = runner.chain(wl.chain, sc, scene_dir, scene_dir / "out",
                             around)
            if t is None:
                return None
            rounds.append(t)
        digests[name].update(output_digests(scene_dir, scene_dir / "out",
                                            wl.chain))
        return setup, rounds

    plain = one_pass("plain", scene, seconds=spec["seconds"])
    tracer = Tracer()
    tracer.install()
    try:
        tracer.trace_id = "full"
        full = one_pass("full", scene, around=tracer.span_stage)
        tracer.trace_id = "half"
        halved = one_pass("half", half, around=tracer.span_stage)
    finally:
        tracer.uninstall()
    probe = MemoryProbe()
    probe.install()
    try:
        mem = one_pass("mem", scene, around=probe.stage)
    finally:
        probe.uninstall()

    result = {"ops": runner.ops, "digests": digests, "metrics": None,
              "scene": scene.seed, "spans": tracer.spans}
    if None in (plain, full, halved, mem):
        return result

    def stage_times(passed):
        setup, rounds = passed
        return {**setup, **rounds[0]}

    t_full, t_half = stage_times(full), stage_times(halved)
    untraced = statistics.median(sum(r.values()) for r in plain[1])
    traced = sum(full[1][0].values())
    metrics = layer_metrics(tracer)
    for stage in STAGES:
        metrics[f"stage.{stage}_s"] = t_full.get(stage, 0.0)
        metrics[f"stage.{stage}_peak_mib"] = probe.stage_peak.get(stage, 0.0)
        metrics[f"stage.{stage}_scaling"] = (
            math.log(t_full[stage] / t_half[stage], 2)
            if stage in t_full else 0.0)
    metrics["detect.peak_mib"] = probe.detect_peak
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    metrics["trace.spans"] = float(len(tracer.spans))
    result["metrics"] = metrics
    return result


# spans whose inclusive time is reported as `<span>_s`
TIMED = (
    "simulator.simulate", "simulator.annotate",
    "simulator.perfect_detections", "simulator.degrade", "simulator.render",
    "formats.write_annotations", "formats.write_detections",
    "formats.write_pgm", "formats.read_annotations",
    "formats.read_detections", "formats.read_pgm", "detect.background",
    "detect.preprocess", "detect.top", "detect.front",
    "track2d.build_tracklets", "crossview.build_graph",
    "crossview.node_weight", "crossview.extract_3d_tracklets",
    "track3d.associate", "track3d.assignment_cost", "metrics.evaluate_tracks",
    "metrics.match_frames", "metrics.id_metrics", "metrics.complexity_report",
)
# tracer counters reported as they are
COUNTED = (
    "geometry.project_batch_calls", "formats.bytes_written",
    "formats.bytes_read", "detect.detections", "detect.empty_frames",
    "track2d.mahalanobis_calls", "track2d.hungarian_calls",
    "track2d.tracklets", "crossview.nodes", "crossview.edges",
    "crossview.paths", "geometry.triangulate_rows", "track3d.galleries",
    "track3d.galleries_assigned", "track3d.galleries_dropped",
    "track3d.seed_set_found", "metrics.fish_ids_calls",
    "crossview.pairs_scored",
)
LAYERS = ("simulator", "formats", "geometry", "detect", "track2d",
          "crossview", "track3d", "metrics")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of the full-length traced pass."""
    incl = tracer.inclusive("full")
    own = tracer.layer_self("full")
    counts = tracer.counts.get("full", {})
    out = {f"{span}_s": incl.get(span, 0.0) for span in TIMED}
    out.update({name: float(counts.get(name, 0)) for name in COUNTED})
    out.update({f"self.{layer}_s": own.get(layer, 0.0) for layer in LAYERS})
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = {"setup": mode_setup, "chain": mode_chain,
            "trace": mode_trace}[spec["mode"]]
    result = mode(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
