#!/usr/bin/env python3
"""Steadiness check for the host-time benchmark.

Runs the command in BENCHMARK.json on each workload N times, with seeds 1
to N, and prints for every end-to-end metric the median, the quartiles and
the spread (third minus first quartile, as a share of the median) against
the metric's bound. With --against it also compares each median with a
saved earlier set, as a check of two sets of runs of the same commit.

    python3 hostbench/steady.py --runs 10 [--workloads box-io,fleet-day]
        [--save set1.json] [--against set0.json]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs not correct")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def worse_by(before, after, better):
    """Share by which `after` is worse than `before` (negative = better)."""
    if better == "lower":
        return (after - before) / before
    return (before - after) / before


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--save", default=None, help="write the raw results here")
    parser.add_argument("--against", default=None, help="earlier --save file")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    earlier = {}
    if opts.against:
        with open(opts.against) as f:
            earlier = json.load(f)

    raw = {}
    steady = True
    for workload in names:
        results = []
        for seed in range(1, opts.runs + 1):
            r = run_once(bench["command"], workload, seed, bench["run_seconds"])
            results.append(r)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"{workload} seed {seed}: {values}", flush=True)
        raw[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: failed share per run {sorted(shares)}")
        print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, s = spread(values)
            if s <= spec["bound"] / 3:
                verdict = "steady"
            elif s <= spec["bound"]:
                verdict = "within bound, above a third"
                steady = False
            else:
                verdict = "TOO WIDE"
                steady = False
            line = (f"{name:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{s:8.2%} {spec['bound']:6.2f}  {verdict}")
            if workload in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload])
                w = worse_by(before, med, spec["better"])
                line += f"; vs earlier set {w:+.2%}"
                if w > spec["bound"]:
                    line += " WORSE THAN BOUND"
                    steady = False
            print(line)
        print()
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
