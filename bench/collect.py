"""Repeat benchmark runs over seeds and summarize their spread.

    python3 bench/collect.py --workload crowd_heads --seeds 1-10 --seconds 10

Runs `run.py` once per seed, one run at a time, and prints for each metric
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread: the distance between the quartiles as a share of the median.
The run results are kept in `.bench_out/collect-<workload>-<seeds>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results: list[dict]) -> dict[str, dict]:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    results = []
    for seed in seeds(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            if not k.startswith(("stage.", "self."))) +
            f" failed={result['failed']}/{result['attempted']}"
            f" correct={result['correct']}"
            f" wall={time.monotonic() - start:.1f}s", flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name:>16} median {s['median']:.4g} {s['unit']}  "
              f"q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['spread']:.1%}")
    out = HERE.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"collect-{args.workload}-trace{args.trace}-{args.seeds}.json"
     ).write_text(json.dumps({"results": results, "summary": summary}))
    return 0 if all(r["correct"] and not r["failed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
