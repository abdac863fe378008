#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints how much each metric spreads.

Run from the repository root:

    python3 perfbench/steadiness.py --workload mine_store --seconds 20 \\
        --seeds 301-310

For each run it prints the seed, the wall time and the metrics. Then, per
end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. BENCHMARK.json's bound for the metric and the ratio
spread / bound follow. With --out, the runs are also written as JSON lines
so that two sets can be compared later with --compare.

    python3 perfbench/steadiness.py --compare set1.jsonl set2.jsonl

prints, per workload and metric, both set medians and the ratio of the
second to the first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def bounds():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return {m["name"]: m["bound"] for m in manifest["end_to_end"]}


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed: seed %d exit %d\n%s" %
                 (seed, done.returncode, done.stderr[-2000:]))
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(args):
    bound = bounds()
    values = {}
    out = open(args.out, "a") if args.out else None
    for seed in seeds_of(args.seeds):
        start = time.time()
        result = run_once(args.workload, seed, args.seconds)
        took = time.time() - start
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        print("seed %d %.1fs correct=%s attempted=%d failed=%d %s" %
              (seed, took, result["correct"], result["attempted"],
               result["failed"],
               " ".join("%s=%.4g" % kv for kv in metrics.items())),
              flush=True)
        if out:
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "result": result}) + "\n")
            out.flush()
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
    print("%-14s %14s %8s %6s %12s" %
          ("metric", "median", "spread", "bound", "spread/bound"))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        s = spread(vals)
        b = bound.get(name, float("nan"))
        print("%-14s %14.6g %8.4f %6.2f %12.2f" %
              (name, statistics.median(vals), s, b, s / b))


def compare(paths):
    bound = bounds()
    sets = []
    for path in paths:
        per = {}
        with open(path) as f:
            for line in f:
                row = json.loads(line)
                for name, m in row["result"]["metrics"].items():
                    per.setdefault((row["workload"], name), []).append(
                        m["value"])
        sets.append(per)
    print("%-12s %-14s %14s %14s %8s %6s" %
          ("workload", "metric", "median 1", "median 2", "2 / 1", "bound"))
    for key in sets[0]:
        if key not in sets[1]:
            continue
        a = statistics.median(sets[0][key])
        b = statistics.median(sets[1][key])
        print("%-12s %-14s %14.6g %14.6g %8.3f %6.2f" %
              (key[0], key[1], a, b, b / a, bound.get(key[1], float("nan"))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    if args.compare:
        compare(args.compare)
    elif args.workload:
        measure(args)
    else:
        parser.error("give --workload or --compare")


if __name__ == "__main__":
    main()
