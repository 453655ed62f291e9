#!/usr/bin/env python3
"""Build and run the simulator-cost benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ttcp-tx --seed 42 --trace 0
    python3 perfbench/run.py --write-reference   # re-record perfbench/reference/

The benchmark is compiled from source into .bench_build/ (RelWithDebInfo,
the repository's default build type) on first use; later runs only
re-check the build. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. A traced run (--trace 1)
first runs the benchmark's self-test and fails if it does not pass.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("ttcp-tx", "ttcp-rx", "flow-churn")
DEFAULT_SEED = 42


def build():
    """Configure (once) and build the benchmark; exit 1 on failure."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def bench(*args):
    """Run the benchmark binary; return its exit code."""
    sys.stdout.flush()
    return subprocess.run([str(BINARY), *args], cwd=ROOT).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="re-record every workload's reference at the "
                         "default seed")
    args = ap.parse_args()
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.write_reference:
        for w in WORKLOADS:
            ref = BENCH_DIR / "reference" / f"{w}.ref"
            if bench("--workload", w, "--seed", str(DEFAULT_SEED),
                     "--write-reference", str(ref)) != 0:
                return 1
        return 0
    if args.trace and bench("--self-test") != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1
    return bench("--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace))


if __name__ == "__main__":
    sys.exit(main())
