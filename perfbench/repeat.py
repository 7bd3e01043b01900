#!/usr/bin/env python3
"""Repeatability report for the benchmark.

Runs one workload N times, each with another seed, exactly as
BENCHMARK.json's command would be run, and prints for every metric its
values, median, quartiles and spread -- the distance between the first
and third quartile as a share of the median -- next to the metric's
bound. A benchmark is steady when every end-to-end spread except
setup_s stays well inside its bound.

Run from the repository root:

    python3 perfbench/repeat.py --workload serve --runs 10
    python3 perfbench/repeat.py --workload reproduce --runs 5 --first-seed 11
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    specs = bench["end_to_end"]
    values = {m["name"]: [] for m in specs}
    failed = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            failed += 1
            print("\n".join(l for l in lines if l.startswith("CHECK FAILED")))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n in values), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, {failed} incorrect")
    print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for m in specs:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = m["bound"]
        print(f"{m['name']:30} {med:12.4g} {q1:12.4g} {q3:12.4g} {spread:8.3f} {bound:>6} {spread / bound:12.2f}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
