#!/usr/bin/env python3
"""Entry point of the Lightweb end-to-end benchmark.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, compiling src/ from source)
into $CARGO_TARGET_DIR or .bench_build under the repository root, runs one
workload and passes its output through. The last line of standard output is
the run's JSON result; --trace 1 makes it the per-layer table instead of the
end-to-end metrics. See perfbench/README.md.

Exits non-zero, printing no result, when the sources are missing, the build
fails or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("browse", "fetch_1g", "sharded", "publish")
# Set-up, warm-up and teardown on top of --seconds; fetch_1g builds its
# 1 GiB store at least three times.
RUN_SLACK_S = 150
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "zltp", "client.h")):
        fail("no Lightweb sources under " + os.path.join(ROOT, "src"))
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(bdir, ignore_errors=True)  # retry cleanly next time
            fail("configure failed; see " + log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", bdir, "-j", jobs], log,
                  BUILD_TIMEOUT_S) != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        fail("build failed; see " + log)
    return os.path.join(bdir, "lwbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", results]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("lwbench exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("lwbench printed no result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
