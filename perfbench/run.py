#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload answer|serve|ingest --seed N \
      --seconds S --trace 0|1

The build lands in $CARGO_TARGET_DIR (default .bench_build) under the
current directory; the first call configures and compiles, later calls
are incremental no-ops. Build output goes to stderr so that the last line
of stdout is the benchmark's JSON result. The exit code is the program's:
non-zero when the build fails, an operation diverges, or a check fails.
"""
import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["answer", "serve", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    out_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build = os.path.join(out_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return 1

    scratch = os.path.join(out_root, "run")
    os.makedirs(scratch, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
