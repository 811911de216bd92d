#!/usr/bin/env python3
"""Builds the dbmr benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

Workloads: paper_grid, contended_scale, engine_oltp, crash_sweep.  The last
line of standard output is the run's JSON result; build output goes to
standard error.  The build lands in $CARGO_TARGET_DIR when it is set, else
in .bench_build, relative to the repository root.  Traced runs
(--trace 1) also write Chrome trace_event JSON there, under traces/.
Pass --tiny for a smoke-test-sized run (see selftest.py).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_grid", "contended_scale", "engine_oltp", "crash_sweep"]


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: dbmr sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "--target", "dbmr_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "dbmr_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    try:
        binary = build(out)
    except subprocess.CalledProcessError as e:
        sys.exit(f"error: build failed ({e})")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
