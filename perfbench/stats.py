#!/usr/bin/env python3
"""Runs the benchmark k times on one commit and prints each metric's spread.

Usage (from the repository root):

    python3 perfbench/stats.py                      # every workload, 10 seeds
    python3 perfbench/stats.py --workload bdb_batch --runs 5 --first-seed 100
    python3 perfbench/stats.py --trace 1            # per-layer metrics

For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the quartile spread as a share
of the median, and -- for end-to-end metrics -- the bound BENCHMARK.json
allows and whether the spread stays within a third of it. Each run uses its
own seed (first-seed, first-seed + 1, ...). Every run must report
correct=true; the failed share of attempted operations is printed too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds, args.trace)
            values = ", ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())
                               if args.trace == 1 or k in bounds)
            print(f"  {workload} seed {seed}: {values}", file=sys.stderr, flush=True)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: correct=false", file=sys.stderr)
            results.append(result)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each, "
              f"failed share {shares}")
        print(f"  {'metric':42} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}  bound")
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else 0.0
            note = ""
            if args.trace == 0 and name in bounds:
                ok = name == "setup_s" or spread <= bounds[name] / 3
                steady = steady and ok
                note = f"{bounds[name]:.2f} {'ok' if ok else 'WIDE'}"
            print(f"  {name + ' (' + unit + ')':42} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f}  {note}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
