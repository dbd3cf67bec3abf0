#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/LAYERS.md).

    python3 perfbench/run.py --workload handoff --seed 1 --seconds 10 --trace 0

Run from the repository root. The library and the benchmark are built from
source into $CARGO_TARGET_DIR (default .bench_build) with CMake, then
perfbench_main runs the workload. The last line of stdout is the result
object; build output and the human-readable summary go to stderr. With
--trace 1 the kept spans are written to <build dir>/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("handoff", "bystander", "router")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        fail("no library sources next to perfbench/ (run from the repository root)")
    cmake_dir = os.path.join(build_dir, "perfbench")
    configure = ["cmake", "-S", src, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", cmake_dir, "--target", "perfbench_main", "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(cmake_dir, "perfbench_main")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--parked", type=int, default=None,
                    help="bystander: size of the parked population (default 1024)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.parked is not None:
        cmd += ["--parked", str(args.parked)]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    # perfbench_main prints the result object as its last stdout line.
    done = subprocess.run(cmd, timeout=170)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
