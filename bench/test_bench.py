"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

The smoke run exercises every workload, untraced and traced, with every
output check; the other tests show that the checks catch corrupted
outputs and that the tracer leaves the library as it found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS, run_stage  # noqa: E402


@pytest.fixture
def tmp_dir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    name = "".join(c if c.isalnum() else "_" for c in request.node.name)
    path = ROOT / ".bench_work" / f"test-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          stdout=subprocess.PIPE, text=True, timeout=170)
    runs = {}
    for line in proc.stdout.splitlines()[:-1]:
        label, _, payload = line.partition(": ")
        runs[label] = json.loads(payload)
    return proc, runs, json.loads(proc.stdout.splitlines()[-1])


def test_smoke_runs_every_workload_correctly(smoke):
    proc, runs, total = smoke
    assert proc.returncode == 0
    assert total["correct"] and total["failed"] == 0
    assert set(runs) == {f"{w} trace={t}" for w in WORKLOADS for t in (0, 1)}
    for result in runs.values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


def test_results_match_benchmark_json(smoke):
    _, runs, _ = smoke
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            got = runs[f"{name} trace={trace}"]["metrics"]
            assert {k: v["unit"] for k, v in got.items()} == want
    for name in WORKLOADS:
        metrics = runs[f"{name} trace=0"]["metrics"]
        assert all(v["value"] > 0 for v in metrics.values())


def test_trace_counts_repeat_exactly():
    """Two traced runs of one seed give identical counts."""
    def counts():
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
             "long_clean", "--trace", "1"],
            stdout=subprocess.PIPE, text=True, timeout=120, check=True)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] in ("count", "bytes")}
    first = counts()
    assert first["metrics.fish_ids_calls"] > 0
    assert first == counts()


def test_exits_nonzero_without_the_program(tmp_dir):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_dir)
    shutil.copytree(HERE, tmp_dir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long_clean",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def scene():
    """A tiny long_clean scene carried through its whole chain."""
    from stereomot.config import PipelineConfig

    sc = WORKLOADS["long_clean"].scenes(0, smoke=True)[0]
    d = ROOT / ".bench_work" / "test-scene"
    shutil.rmtree(d, ignore_errors=True)
    (d / "out").mkdir(parents=True)
    (d / "config.txt").write_text(sc.config_text)
    cfg = PipelineConfig.from_file(d / "config.txt")
    for stage in ("simulate",) + WORKLOADS["long_clean"].chain:
        run_stage(stage, cfg, d, d / "out")
    yield d
    shutil.rmtree(d, ignore_errors=True)


def _corrupt(scene: Path, tmp: Path, rel: str, edit) -> Path:
    copy = tmp / "scene"
    shutil.copytree(scene, copy)
    target = copy / rel
    target.write_text(edit(target.read_text()))
    return copy


def test_checks_pass_on_real_outputs(scene):
    assert checks.check_annotations(scene) == []
    assert checks.check_tracking(scene, scene / "out") == []


def _flip_first_flag(text: str) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.split(",")
        if not line.startswith(("#", "frame")):
            fields[9] = "1" if fields[9] == "0" else "0"
            lines[i] = ",".join(fields)
            break
    return "".join(lines)


def _shift_first_head(text: str) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.split(",")
        if not line.startswith(("#", "frame")):
            fields[7] = repr(float(fields[7]) + 0.01)
            lines[i] = ",".join(fields)
            break
    return "".join(lines)


def _bump(key: str, delta):
    def edit(text: str) -> str:
        doc = json.loads(text)
        doc[key] += delta
        return json.dumps(doc)
    return edit


def _drop_fish(fish: str):
    def edit(text: str) -> str:
        return "".join(line for line in text.splitlines(keepends=True)
                       if line.startswith(("#", "frame"))
                       or line.split(",")[1] != fish)
    return edit


@pytest.mark.parametrize("rel, edit, stage", [
    ("annotations.csv", _flip_first_flag, "simulate"),
    ("annotations.csv", _shift_first_head, "simulate"),
    ("out/complexity.json", _bump("psi", 1e-6), "complexity"),
    ("out/report.json", _bump("fp", 1), "evaluate"),
    ("out/report.json", _bump("mota", 0.5), "evaluate"),
    ("out/tracks.csv", _drop_fish("2"), "stitch"),
])
def test_checks_catch_corrupted_outputs(scene, tmp_dir, rel, edit, stage):
    copy = _corrupt(scene, tmp_dir, rel, edit)
    fails = checks.check_annotations(copy)
    fails += checks.check_tracking(copy, copy / "out")
    assert stage in {s for s, _ in fails}


def test_tracer_restores_the_library():
    from stereomot import cli, metrics, track2d
    from tracer import MemoryProbe, Tracer

    before = (cli.annotate, track2d.mahalanobis,
              metrics.GroundTruth.__dict__["fish_ids"], cli.detect_top)
    tracer, probe = Tracer(), MemoryProbe()
    tracer.install()
    probe.install()
    assert cli.annotate is not before[0]
    probe.uninstall()
    tracer.uninstall()
    assert (cli.annotate, track2d.mahalanobis,
            metrics.GroundTruth.__dict__["fish_ids"], cli.detect_top) == before
