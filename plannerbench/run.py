#!/usr/bin/env python3
"""Build the planner-service benchmark from the checkout and run one workload.

    python3 plannerbench/run.py --workload <warm_hit|cold_search|replan_mixed>
                                --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and compiles
plannerbench/ (which compiles the checkout's src/) into
$CARGO_TARGET_DIR/plannerbench, default .bench_build/plannerbench; later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Run files go to .bench_run/
(relative, so the daemon's unix socket path stays short).
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("warm_hit", "cold_search", "replan_mixed")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "plannerbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "engine.h")):
        sys.exit("plannerbench: no KARMA sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "plannerbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("plannerbench: build failed: %s" % e)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.exit("plannerbench: run exceeded 170 s")


if __name__ == "__main__":
    sys.exit(main())
