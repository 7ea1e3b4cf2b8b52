#!/usr/bin/env python3
"""Build and run the HardSnap end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fuzz-sim --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the repository's src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
perfbench binary with the same arguments. Build output goes to stderr; the
binary's stdout passes through unchanged, so its last line is the result
JSON. Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("fuzz-sim", "fuzz-remote", "symex-fpga")


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # The binary puts its persistence directories and sockets under a
    # per-process directory here and removes it before it exits. The
    # path is relative to keep Unix socket paths short.
    workdir = os.path.relpath(os.path.join(build_dir, "work"), root)
    sys.stdout.flush()
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", workdir])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
