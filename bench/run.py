"""Benchmark of the stereomot pipeline stages.

    python3 bench/run.py --workload long_clean --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --smoke

Each run builds its inputs from `--seed`, runs the `simulate` set-up in
one child process and the workload's timed chain in a fresh one, checks
every output, and prints one JSON object as its last line of standard
output. `--trace 0` reports the end-to-end metrics (frames_per_s, setup_s,
peak_rss_mib); `--trace 1` runs the traced child instead and reports the
per-layer metrics. `--smoke` runs every workload in both modes at a tiny
size (or, with `--workload`, just that run). Work files live under `.bench_work/` and are removed at the end;
details of the last runs are kept under `.bench_out/`. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import STAGE_OUTPUTS, WORKLOADS  # noqa: E402

# A run must end within 180 s; children get what is left of this budget.
BUDGET_S = 170.0
# One process, one thread: BLAS pools are pinned to a single thread.
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# digest name -> the stage that wrote the file (set-up files have no out/)
PRODUCER = {f"out/{name}": stage for stage, names in STAGE_OUTPUTS.items()
            for name in names}


def unit(metric: str) -> str:
    if metric == "frames_per_s":
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_scaling"):
        return "exponent"
    if metric.startswith("formats.bytes_"):
        return "bytes"
    return "count"


class Run:
    def __init__(self, workload: str, seed: int, seconds: float,
                 smoke: bool):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + BUDGET_S
        self.problems: list[tuple[int, str, str]] = []  # (scene, stage, msg)

    def child(self, mode: str) -> dict:
        result = self.work / f"{mode}.json"
        spec = {"mode": mode, "workload": self.wl.name, "seed": self.seed,
                "smoke": self.smoke, "work": str(self.work),
                "result": str(result), "seconds": self.seconds}
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        json.dumps(spec)], env=CHILD_ENV, stdout=sys.stderr,
                       check=True,
                       timeout=max(1.0, self.deadline - time.monotonic()))
        return json.loads(result.read_text())

    def same(self, scene: int, digests: list[dict], what: str) -> None:
        """Every digest dict must equal the first."""
        for d in digests[1:]:
            for name, value in d.items():
                if value != digests[0].get(name):
                    stage = PRODUCER.get(name, "simulate")
                    self.problems.append(
                        (scene, stage, f"{name} differs between {what}"))

    @staticmethod
    def show(scene: int, *digests: dict) -> None:
        """Print a scene's output digests (first 16 hex digits)."""
        merged = {name: d[:16] for ds in digests for name, d in ds.items()}
        print(f"digests scene {scene}: {json.dumps(merged)}", file=sys.stderr)

    def check(self, scene: int, scene_dir: Path, out: Path) -> None:
        try:
            fails = checks.check_annotations(scene_dir)
            if "detect" in self.wl.chain:
                fails += checks.check_detections(scene_dir, out)
            else:
                fails += checks.check_tracking(scene_dir, out)
        except (OSError, ValueError, KeyError) as e:
            fails = [(self.wl.chain[-1], f"outputs unreadable: {e!r}")]
        self.problems.extend((scene, stage, msg) for stage, msg in fails)

    def verdict(self, ops: list[dict], metrics: dict) -> dict:
        bad = {(scene, stage) for scene, stage, _ in self.problems}
        failed = sum(1 for op in ops
                     if not op["ok"] or (op["scene"], op["stage"]) in bad)
        for op in ops:
            if not op["ok"]:
                print(f"failed: {op['stage']} scene {op['scene']}: "
                      f"{op['error']}", file=sys.stderr)
        for scene, stage, msg in self.problems:
            print(f"check failed: {stage} scene {scene}: {msg}",
                  file=sys.stderr)
        return {"correct": not self.problems, "attempted": len(ops),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit(k)}
                            for k, v in metrics.items()}}

    def timed(self) -> tuple[dict, dict]:
        setup = self.child("setup")
        chain = self.child("chain")
        scenes = self.wl.scenes(self.seed, smoke=self.smoke)
        stage_s = {stage: [] for stage in self.wl.chain}
        for k, scene in enumerate(scenes):
            self.same(scene.seed, setup["digests"].get(str(k), []),
                      "set-up calls")
            runs = [r[k] for r in chain["rounds"]]
            self.show(scene.seed, setup["digests"].get(str(k), [{}])[-1],
                      runs[-1]["digests"] or {})
            if all(r["seconds"] for r in runs):
                self.same(scene.seed, [r["digests"] for r in runs],
                          "chain rounds")
                self.check(scene.seed, self.work / f"scene{k}",
                           self.work / f"scene{k}" / "out")
                for stage, times in stage_s.items():
                    times.append(statistics.median(r["seconds"][stage]
                                                   for r in runs))
        # The chain's wall time is the sum of each stage's median, over the
        # rounds and then over the scenes: a slow spell of the host during
        # one stage, or one scene that is slow in one stage, does not count.
        wall = sum(statistics.median(t) for t in stage_s.values() if t)
        rates = [scenes[0].n_frames / wall] if wall else []
        metrics = {}
        if rates and setup["setup_s"]:
            metrics = {"frames_per_s": rates[0],
                       "setup_s": statistics.median(setup["setup_s"]),
                       "peak_rss_mib": chain["peak_rss_mib"]}
        details = {"setup": setup, "chain": chain}
        return self.verdict(setup["ops"] + chain["ops"], metrics), details

    def traced(self) -> tuple[dict, dict]:
        res = self.child("trace")
        digests = res["digests"]
        scene = res["scene"]
        if "plain" in digests:
            self.show(scene, digests["plain"])
        if len(digests) == 4:
            self.same(scene, [digests[p] for p in ("plain", "full", "mem")],
                      "untraced, traced and tracemalloc passes")
            for name in ("full", "half"):
                self.check(scene, self.work / name, self.work / name / "out")
        metrics = res["metrics"] or {}
        return self.verdict(res["ops"], metrics), res

    def run(self, trace: bool) -> dict:
        try:
            result, details = self.traced() if trace else self.timed()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        name = (f"{self.wl.name}-seed{self.seed}-trace{int(trace)}"
                + ("-smoke" if self.smoke else ""))
        details.update(result=result, problems=self.problems)
        (out / f"{name}.json").write_text(json.dumps(details))
        return result


def smoke() -> int:
    """Every workload, untraced and traced, at a tiny size."""
    ok, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        for trace in (False, True):
            result = Run(name, 0, 0.0, smoke=True).run(trace)
            print(f"{name} trace={int(trace)}: {json.dumps(result)}")
            ok &= result["correct"] and bool(result["metrics"])
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if ok and not failed else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long the timed chain repeats (whole rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes; without --workload, every workload "
                        "untraced and traced")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "stereomot" / "__init__.py").is_file():
        print(f"error: no stereomot sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.smoke and args.workload is None:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    result = Run(args.workload, args.seed,
                 0.0 if args.smoke else args.seconds,
                 smoke=args.smoke).run(bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
