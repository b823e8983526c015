#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command of BENCHMARK.json k times per workload, each
time with another seed, and prints for every end-to-end metric its median,
first and third quartile, and the quartile spread (Q3 - Q1) / median
against the metric's bound. Exits 1 when a spread exceeds its bound, when
the share of failed operations differs between runs, or when a run fails.

    python3 perfbench/steady.py [--runs K] [--seconds S] [--first-seed N]
                                [workload ...]

Run it from the repository root. With no workload named, all of them run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    breaches = []
    for name in names:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(bench["command"], name, seed, args.seconds)
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            breaches.append(f"{name}: failed share differs across runs {shares}")
        print(f"\n{name}: {args.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bound:
                flag = "  BREACH"
                breaches.append(f"{name}/{metric}: spread {spread:.4f} > {bound:.4f}")
            print(f"  {metric:16} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound:6.3f}{flag}")
        print()
    if breaches:
        print("breaches:\n  " + "\n  ".join(breaches))
        return 1
    print("every spread within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
