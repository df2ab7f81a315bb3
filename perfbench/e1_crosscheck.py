#!/usr/bin/env python3
"""E1 cross-check: the end-to-end harness against bench_server_compute.

    python3 perfbench/e1_crosscheck.py \\
        --bench-server-compute build/bench/bench_server_compute [--seed 1]

Runs the traced fetch_1g workload (1 GiB of 4 KiB records, d = 20, batch
size 1, servers on a pool of nproc threads) and bench_server_compute on the
same host, then prints the harness's per-GET DPF expansion and per-pass scan
beside the microbenchmark's numbers, with their ratio. A ratio near 1 means
the harness agrees with the microbenchmark; otherwise the gap is visible.

Microbenchmark rows used:
  * BM_DpfFullEval/20: one single-threaded 2^20 expansion;
  * the E1 thread-scaling row at t = nproc: a 2^22 expansion and a 1 GiB
    scan on a pool of that size; the d = 22 expansion divided by 4 gives
    the d = 20 estimate (a quarter of the leaves).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_harness(seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fetch_1g",
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    path = next(line.split(": ", 1)[1] for line in out.splitlines()
                if line.startswith("result file: "))
    with open(path) as f:
        return json.load(f)


def run_microbench(binary, threads, workdir):
    os.makedirs(workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        gb = os.path.join(tmp, "gb.json")
        e1 = os.path.join(tmp, "e1.json")
        subprocess.run(
            [binary, "--benchmark_filter=^BM_DpfFullEval/20$",
             "--benchmark_out=" + gb, "--benchmark_out_format=json",
             "--threads=%d" % threads, "--json=" + e1],
            stdout=subprocess.DEVNULL, check=True)
        with open(gb) as f:
            dpf20 = next(b for b in json.load(f)["benchmarks"]
                         if b["name"] == "BM_DpfFullEval/20")
        with open(e1) as f:
            rows = {b["name"]: b for b in json.load(f)["benchmarks"]}
    scale = {"ms": 1.0, "us": 1e-3, "ns": 1e-6, "s": 1e3}[dpf20["time_unit"]]
    prefix = "server_compute/scaling/threads=%d/" % threads
    return {
        "dpf20_t1_ms": dpf20["real_time"] * scale,
        "dpf22_ms": rows[prefix + "dpf"]["ns_per_op"] / 1e6,
        "scan_1g_ms": rows[prefix + "scan"]["ns_per_op"] / 1e6,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-server-compute", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()

    harness = run_harness(args.seed, args.seconds)
    threads = harness["host"]["nproc"]
    if threads != (os.cpu_count() or 0):
        sys.exit("e1_crosscheck: harness ran on another core count")
    micro = run_microbench(args.bench_server_compute, threads,
                           os.path.join(ROOT, ".bench_build"))
    m = harness["metrics"]
    expand = m["dpf.expand_ms_per_get"]["value"]
    scan = m["pir.scan_ms_per_pass"]["value"]
    rows = [
        ("DPF expansion, d=20 (harness, pool of %d)" % threads,
         expand, "BM_DpfFullEval/20, 1 thread", micro["dpf20_t1_ms"]),
        ("DPF expansion, d=20 (harness, pool of %d)" % threads,
         expand, "E1 d=22 t=%d, / 4" % threads, micro["dpf22_ms"] / 4),
        ("scan 1 GiB per pass (harness, pool of %d)" % threads,
         scan, "E1 1 GiB scan, t=%d" % threads, micro["scan_1g_ms"]),
    ]
    host = harness["host"]
    print("host: nproc=%d cpu=%s xor_tier=%s aes_ni=%s seed=%d" %
          (host["nproc"], host["cpu_model"], host["xor_tier"], host["aes_ni"],
           host["seed"]))
    print("%-44s %10s  %-28s %10s %8s" %
          ("harness (fetch_1g, traced)", "ms", "bench_server_compute", "ms",
           "ratio"))
    for name, ours, ref_name, ref in rows:
        print("%-44s %10.3f  %-28s %10.3f %8.3f" %
              (name, ours, ref_name, ref, ours / ref if ref else float("nan")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
