#!/usr/bin/env python3
"""Builds the SAND benchmark from source and runs one workload.

Run from the root of a SAND checkout:

    python3 sandbench/run.py --workload train_pipeline --seed 1 --seconds 10 --trace 0
    python3 sandbench/run.py --selftest

The first call configures and builds sandbench/ (the repository's src/
libraries plus bench/bench_common.cc) into .bench_build/sandbench; later
calls rebuild only what changed. The benchmark binary prints each metric
with its unit on stderr and, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. A checkout without
the SAND sources fails the build, and this script exits non-zero without
printing a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "sandbench")  # relative to ROOT
OUT_DIR = os.path.join(BUILD_DIR, "out")  # span files and the serve socket
WORKLOADS = ["train_pipeline", "budget_multitask", "demand_readahead", "serve_socket"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("sandbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr, keeping stdout clean."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except subprocess.CalledProcessError as err:
        fail("build step failed (exit %d): %s" % (err.returncode, " ".join(cmd)))
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))


def build(target):
    for needed in ("src/CMakeLists.txt", "bench/bench_common.cc", "sandbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no SAND sources here (missing %s); nothing to build" % needed)
    build_dir = os.path.join(ROOT, BUILD_DIR)
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_quiet(["cmake", "-S", "sandbench", "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator, BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_quiet(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
                  BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, target)
    if not os.path.isfile(binary):
        fail("build produced no %s" % target)
    return binary


def check_result(line):
    """True when `line` is a result object of the documented shape."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and all(set(m) == {"value", "unit"} for m in result["metrics"].values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own statistics tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("sandbench_selftest")
        sys.exit(subprocess.run([binary], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("sand_bench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not check_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        fail("workload %s failed (exit %d)" % (args.workload, proc.returncode))
    print(lines[-1])


if __name__ == "__main__":
    main()
