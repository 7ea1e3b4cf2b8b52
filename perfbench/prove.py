#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/prove.py --seeds 10 --sets 2 [--trace 1] [--json FILE]

Runs perfbench/run.py once per (set, workload, seed), for every workload in
BENCHMARK.json, seeds 1 to --seeds, each run lasting BENCHMARK.json's
run_seconds. The runs of the sets are interleaved so that host drift hits
every set alike. For every end-to-end metric it prints, per set, the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(third minus first quartile, as a share of the median), then the change of
each set's median against the first set's. With --trace 1 it does the same
for the per-layer metrics. Runs of one workload and seed must print the
same exact-output digest; any that differ are reported. --json FILE also
writes every raw result.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    digest = re.search(r"exact-output digest ([0-9a-f]+)", proc.stdout)
    result["digest"] = digest.group(1) if digest else None
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write raw results here")
    args = parser.parse_args()

    seeds = range(1, args.seeds + 1)
    raw = {w: [[] for _ in range(args.sets)] for w in WORKLOADS}
    digests = {}
    for seed in seeds:
        for w in WORKLOADS:
            for s in range(args.sets):
                result = run_once(w, seed, args.trace)
                raw[w][s].append(result)
                first = digests.setdefault((w, seed), result["digest"])
                if result["digest"] != first:
                    print(f"EXACT OUTPUTS DIFFER: {w} seed {seed}: "
                          f"{first} vs {result['digest']}", flush=True)
                metrics = result["metrics"]
                brief = ", ".join(f"{k}={v['value']:.6g}"
                                  for k, v in list(metrics.items())[:4])
                print(f"[set {s}] {w} seed {seed}: {brief}", flush=True)

    for w in WORKLOADS:
        print(f"\n== {w}")
        first = None
        for name in raw[w][0][0]["metrics"]:
            unit = raw[w][0][0]["metrics"][name]["unit"]
            row = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in raw[w][s]]
                st = summarize(vals)
                if s == 0:
                    first = st["median"]
                change = ((st["median"] - first) / first) if first else 0.0
                row.append(f"set{s}: median {st['median']:.6g} "
                           f"[{st['q1']:.6g}, {st['q3']:.6g}] "
                           f"spread {100 * st['spread']:.2f}% "
                           f"vs set0 {100 * change:+.2f}%")
            print(f"  {name} ({unit}): " + " | ".join(row))

    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
