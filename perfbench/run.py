#!/usr/bin/env python3
"""Build and run the ritcs benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> [--seed 42] [--seconds 20] [--trace 0|1]

Builds the benchmark runner from the repository sources with CMake (into
$CARGO_TARGET_DIR, default .bench_build, relative to the repository root),
then runs one workload. Build output goes to stderr; the runner's report
goes to stdout, and its last line is the JSON result. Workloads and
metrics are described in perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["trial_1m", "clear_tight", "sweep_paper", "sweep_supervised"]
# The pinned default seed (README.md names the held-out one).
DEFAULT_SEED = 42


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run([cmake, "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "ritcs_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "rit.h")):
        print("perfbench: repository sources not found under "
              + os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir, "ritcs-perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace,
                           "--trace-dir", trace_dir], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
