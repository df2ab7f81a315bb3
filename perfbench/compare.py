#!/usr/bin/env python3
"""Pair comparison of two commits on the Lightweb benchmark.

    python3 perfbench/compare.py --parent ../parent --change . \\
        [--workloads browse,fetch_1g]

--parent and --change are checkouts of the two commits. For each workload
the tool runs 10 alternating parent/change pairs (the side that runs first
alternates; both sides of a pair get the same seed, a fresh seed per pair)
with the parent's run_seconds, then prints one row per workload:

  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ, in the better direction, by
              more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (IQR / median) exceeds the bound,
              unless every change run beats every parent run;
  same        none of the above.

A gain does not count when the change fails more ops than the parent. The
tool refuses to compare runs made on different core counts or CPU models,
and prints each workload's highest CPU-steal share: on a shared host,
runs with more than a few percent of steal are slower for reasons outside
the program.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
SEED_BASE = 1000


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"], cwd=checkout, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("compare: %s: run failed (seed %d)" % (checkout, seed))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    path = next(line.split(": ", 1)[1] for line in lines
                if line.startswith("result file: "))
    with open(path) as f:
        full = json.load(f)
    result["host"] = full["host"]
    result["steal"] = full["metrics"]["host.measured_steal_share"]["value"]
    result["seed"] = seed
    return result


def collect(args):
    bench = load_benchmark(args.parent)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    runs = {"benchmark": bench, "workloads": {}}
    for w in workloads:
        pairs = []
        for i in range(PAIRS):
            seed = SEED_BASE + i
            sides = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            pair = {}
            for side in sides:
                checkout = args.parent if side == "parent" else args.change
                pair[side] = run_once(checkout, w, seed, seconds)
                print("%s pair %d %s: %s" % (w, i, side, json.dumps(
                    {k: v["value"] for k, v in
                     pair[side]["metrics"].items()})), file=sys.stderr)
            pairs.append(pair)
        runs["workloads"][w] = pairs
    return runs


def check_hosts(runs):
    hosts = {(r["host"]["nproc"], r["host"]["cpu_model"])
             for pairs in runs["workloads"].values() for pair in pairs
             for r in pair.values()}
    if len(hosts) != 1:
        sys.exit("compare: refusing to compare across hosts: %s" %
                 sorted(hosts))


def verdict(metric, pairs):
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    p = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
    c = [pair["change"]["metrics"][name]["value"] for pair in pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    p_med, c_med = statistics.median(p), statistics.median(c)
    pq = statistics.quantiles(p, n=4) if len(p) > 1 else [p[0]] * 3
    p_iqr = pq[2] - pq[0]
    spread = p_iqr / p_med if p_med else float("inf")
    worse = -sign * (c_med - p_med) / p_med if p_med else 0.0
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    failed_p = sum(pair["parent"]["failed"] for pair in pairs)
    failed_c = sum(pair["change"]["failed"] for pair in pairs)
    if (wins >= 0.9 * PAIRS and sign * (c_med - p_med) > p_iqr
            and failed_c <= failed_p):
        v = "gain"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regressed"
    else:
        v = "same"
    return {"verdict": v, "parent_median": p_med, "change_median": c_med,
            "parent_iqr": p_iqr, "wins": wins, "pairs": len(pairs),
            "change_vs_parent": (c_med / p_med - 1.0) if p_med else 0.0}


def report(runs):
    check_hosts(runs)
    metrics = runs["benchmark"]["end_to_end"]
    names = [m["name"] for m in metrics]
    print("%-10s %s" % ("workload", " ".join("%-14s" % n for n in names)))
    details = []
    for w, pairs in runs["workloads"].items():
        row = [verdict(m, pairs) for m in metrics]
        steal = max(r["steal"] for pair in pairs for r in pair.values())
        print("%-10s %s  max steal %.3f" %
              (w, " ".join("%-14s" % r["verdict"] for r in row), steal))
        details += [(w, n, r) for n, r in zip(names, row)]
    print()
    print("%-10s %-16s %12s %12s %10s %9s %6s" %
          ("workload", "metric", "parent_med", "change_med", "parent_iqr",
           "change%", "wins"))
    for w, n, r in details:
        print("%-10s %-16s %12.5g %12.5g %10.4g %+8.2f%% %3d/%-2d" %
              (w, n, r["parent_median"], r["change_median"], r["parent_iqr"],
               100 * r["change_vs_parent"], r["wins"], r["pairs"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads")
    args = parser.parse_args()
    report(collect(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
