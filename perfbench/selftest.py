#!/usr/bin/env python3
"""Tiny-size self-test of every benchmark workload.

Runs each workload of BENCHMARK.json at smoke-test size, untraced and
traced, and checks that the result line has exactly the contract's keys,
that the run is correct, that it emits exactly the end-to-end (untraced)
or per-layer (traced) names of BENCHMARK.json with their units, that every
end-to-end value is positive, and that the layers each workload is named
for report non-zero numbers.  Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer name prefixes that must read non-zero on each workload: the
# layers the workload exists to exercise.
MUST_MOVE = {
    "paper_grid": ["machine.", "sim.", "workload.", "hw.", "core."],
    "contended_scale": ["machine.host_ns_per_event", "machine.logging.",
                        "machine.arch.logging.", "sim.", "workload.",
                        "txn.", "hw."],
    "engine_oltp": ["recovery.", "store."],
    "crash_sweep": ["chaos.media_", "core."] +
                   [f"chaos.{e}.{m}" for e in
                    ["wal", "shadow", "differential", "overwrite-noundo",
                     "overwrite-noredo", "version-select", "aries"]
                    for m in ["sweep_ms", "schedules", "recover_share"]],
}

# Counts that are 0 on a correct baseline: no machine of the benchmark
# outgrows the kernel's heap (see METRICS.md).
MAY_BE_ZERO = {"sim.ladder_spills"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        return None, f"exit {p.returncode}: {p.stderr.strip()[-400:]}"
    lines = p.stdout.strip().splitlines()
    if not lines:
        return None, "no output"
    return json.loads(lines[-1]), None


def check(workload, trace, spec):
    result, err = run(workload, trace)
    if err:
        return [err]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not a whole number")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"names differ: missing {missing}, extra {extra}")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {want[name]}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
        elif not trace and m["value"] <= 0:
            problems.append(f"{name}: end-to-end value {m['value']} <= 0")
    if trace:
        for prefix in MUST_MOVE.get(workload, []):
            for name, m in got.items():
                if name.startswith(prefix) and m.get("value") == 0 and \
                        name not in MAY_BE_ZERO and \
                        not name.endswith(".violations"):
                    problems.append(f"{name} reads 0 on {workload}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check(w["name"], trace, spec)
            status = "ok" if not problems else "FAIL"
            print(f"{w['name']:16s} trace={trace}  {status}", flush=True)
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
