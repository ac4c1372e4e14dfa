#!/usr/bin/env python3
"""Pipeline benchmark entry point.

Builds ps_bench from the checkout's own sources (CMake, Release) into
.bench_build/psbench and runs one workload:

    python3 psbench/run.py --workload cold-open --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result. Build output goes to
standard error. Exits non-zero, printing no result, when the analysis
sources are missing, the build fails or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "psbench")
WORK = os.path.join(ROOT, ".bench_build", "psbench-run")
EXE = os.path.join(BUILD, "ps_bench")
WORKLOADS = ("cold-open", "edit-settle", "validate-emit")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally. False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("psbench: analysis sources (src/) not found next to the "
              "benchmark", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not build():
        print("psbench: build failed", file=sys.stderr)
        return 1
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("psbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("psbench: ps_bench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
