#!/usr/bin/env python3
"""Builds and runs the npr benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root. `--workload all` runs every workload in turn
and prints one line of end-to-end metrics per workload. The first run configures and builds the
simulator and the driver in .bench_build/perfbench (Release); later runs only
rebuild what changed. Build output goes to stderr, so the last stdout line is
the driver's JSON result. --trace 1 also writes the span ledger to
.bench_build/perfbench/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "npr_perfbench")
WORKLOADS = ("table1", "service_mix", "cluster8", "overload_chaos")
# The driver's heap is never handed back to the kernel (no mmap'd chunks, no
# trimming), so each repetition reuses the pages the one before it touched
# instead of faulting in fresh zeroed ones. A page fault on a shared virtual
# host costs whatever its other tenants leave; without this, faults were a
# fifth of the benchmark's time and three quarters of setup_s.
DRIVER_ENV = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.mmap_max=0:"
                  "glibc.malloc.trim_threshold=4294967295")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no npr sources (src/) next to perfbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def run_all(seed, seconds):
    ok = True
    for workload in WORKLOADS:
        out = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                             stdout=subprocess.PIPE, text=True, env=DRIVER_ENV)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{workload}: exit {out.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        metrics = " ".join(f"{name}={m['value']:.6g} {m['unit']}"
                           for name, m in result["metrics"].items())
        print(f"{workload}: {metrics} ops={result['attempted']} failed={result['failed']}"
              f" correct={str(result['correct']).lower()}")
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command, env=DRIVER_ENV).returncode


if __name__ == "__main__":
    sys.exit(main())
