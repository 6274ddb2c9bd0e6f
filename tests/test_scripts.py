"""Smoke tests: the experiment scripts run end to end on tiny scenes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], env=env, capture_output=True, text=True,
                          timeout=300)


def test_clean_run_demo():
    proc = run_script("clean_run_demo.py", "--n-fish", "2",
                      "--duration", "2")
    assert proc.returncode == 0, proc.stderr


def test_degradation_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("degradation_sweep.py", "--n-fish", "2",
                      "--duration", "2", "--seeds", "1", "--drop", "0",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 2
