#!/usr/bin/env python3
"""Compare a bench_throughput JSON against a checked-in baseline.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--threshold 0.15]
                     [--github]

Exits 1 if any scenario's sustained req/s dropped more than --threshold
(default 15%) below the baseline, or if a baseline scenario disappeared.
Scenarios present only in CURRENT are reported but never fail the run, so
adding a scenario does not require regenerating the baseline in the same
change.

With --github, regressions are also emitted as GitHub workflow-command
warnings so they annotate the PR even when the CI step is configured as
non-blocking.

CI keeps absolute numbers honest by always comparing like-for-like shapes:
the baseline records its config (clients, domain, smoke, and the host's
nproc and CPU model) and a mismatch is a hard error — comparing an 8-client
run against a 3-client baseline, or a 1-vCPU host against a 4-vCPU one,
would make every number meaningless.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def scenarios(doc, path):
    table = doc.get("throughput")
    if not isinstance(table, list) or not table:
        print(f"compare_bench: {path} has no throughput table",
              file=sys.stderr)
        sys.exit(2)
    return {row["name"]: row for row in table}


# Config keys that change what the numbers mean, including the host's core
# count and CPU model: req/s from a 1-vCPU runner says nothing about a
# 4-vCPU one. xor_tier and hugepages are deliberately absent: they follow
# from the host and are part of what we measure.
SHAPE_KEYS = ("domain_bits", "record_size", "clients",
              "requests_per_client", "smoke", "nproc", "cpu_model")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max fractional req/s drop (default 0.15)")
    parser.add_argument("--github", action="store_true",
                        help="emit GitHub workflow-command annotations")
    args = parser.parse_args()

    base_doc = load(args.baseline)
    cur_doc = load(args.current)

    base_cfg = base_doc.get("config", {})
    cur_cfg = cur_doc.get("config", {})
    for key in SHAPE_KEYS:
        if base_cfg.get(key) != cur_cfg.get(key):
            print(f"compare_bench: config mismatch on '{key}': baseline "
                  f"{base_cfg.get(key)} vs current {cur_cfg.get(key)}; "
                  "regenerate the baseline with the same shape",
                  file=sys.stderr)
            sys.exit(2)

    base = scenarios(base_doc, args.baseline)
    cur = scenarios(cur_doc, args.current)

    failed = False
    print(f"{'scenario':<24} {'baseline':>10} {'current':>10} {'delta':>8}")
    for name, base_row in sorted(base.items()):
        if name not in cur:
            print(f"{name:<24} {'':>10} {'':>10}  MISSING")
            failed = True
            continue
        b = float(base_row["req_per_s"])
        c = float(cur[name]["req_per_s"])
        delta = 0.0 if b == 0 else (c - b) / b
        verdict = ""
        if b > 0 and delta < -args.threshold:
            verdict = "  REGRESSION"
            failed = True
            if args.github:
                print(f"::warning title=bench_throughput regression::"
                      f"{name}: {b:.1f} -> {c:.1f} req/s "
                      f"({delta * 100:+.1f}%)")
        print(f"{name:<24} {b:>10.1f} {c:>10.1f} {delta * 100:>+7.1f}%"
              f"{verdict}")
    for name in sorted(set(cur) - set(base)):
        print(f"{name:<24} {'(new)':>10} "
              f"{float(cur[name]['req_per_s']):>10.1f}")

    if failed:
        print(f"compare_bench: req/s regressed more than "
              f"{args.threshold * 100:.0f}% (or a scenario vanished)",
              file=sys.stderr)
        sys.exit(1)
    print("compare_bench: ok")


if __name__ == "__main__":
    main()
