#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):
    python3 perfbench/spread.py [--runs N] [--seconds S] [--first-seed K] [--values] [workload ...]

Runs `perfbench/run.py --trace 0` N times per workload, each with another
seed, and prints per metric the median and the interquartile range as a
share of the median (Python's `statistics.quantiles(values, n=4)`), next to
a third of the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--values", action="store_true", help="print every value")
    p.add_argument("workloads", nargs="*")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in names:
        values = {}
        for i in range(a.runs):
            seed = a.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: run failed (exit {out.returncode})")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w} ({a.runs} runs)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:<24} median {med:<14.6g} spread {spread:7.4f}  bound/3 {bound / 3 if bound else 0:.4f}{flag}")
            if a.values:
                print("    " + " ".join(f"{v:.6g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
