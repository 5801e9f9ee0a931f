#!/usr/bin/env python3
"""Build and run the dynet repo benchmark (perfbench/perfbench.cpp).

Run from the repository root:

    python3 perfbench/run.py --workload tree_flood --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all   # every workload, then traced

The first call configures and builds perfbench/CMakeLists.txt (the library
from src/ plus perfbench.cpp, Release) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls only re-run the incremental build.
Build output goes to stderr, so stdout carries the benchmark's metric lines and,
last, its one-line JSON result.  The exit code is the benchmark's: 0 when every
trial passed its checks, 1 when any failed, 2 on bad arguments or a failed
build.  `--write-reference` regenerates perfbench/reference/<workload>.ref.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tree_flood", "paper_leader", "duplex_diam", "faulted_trace")


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="'all' runs every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        return 2
    runs = [(args.workload, args.trace)]
    if args.workload == "all":
        traces = (0,) if args.write_reference else (0, 1)
        runs = [(w, t) for t in traces for w in WORKLOADS]
    status = 0
    for workload, trace in runs:
        command = [os.path.join(build_dir, "perfbench"),
                   "--workload", workload,
                   "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(trace),
                   "--reference-dir", os.path.join(HERE, "reference"),
                   "--work-dir", os.path.join(build_dir, "work")]
        if args.write_reference:
            command.append("--write-reference")
        status = max(status, subprocess.run(command).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
