#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout. The benchmark package is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build in the
checkout); the workload then runs in its own process. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer ones (same traffic,
plus direct layer probes and an allocation-counting allocator).
--smoke shrinks every phase for a sub-second check of the code paths.
The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 with a result, 1 when the run failed or its output did
not match BENCHMARK.json, 2 when the program cannot be built here.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The first run in a checkout builds; later runs must finish in 180 s.
BUILD_BUDGET_S = 880
RUN_BUDGET_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def commit():
    """The checkout's commit, read from .git without calling git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def build():
    if not (ROOT / "crates").is_dir():
        fail("no crates/ next to the benchmark: nothing to build", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"), "--bins"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_BUDGET_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 2)
    if done.returncode != 0:
        fail("build failed", 2)
    return target / "release"


def check(result, trace):
    """The result object must carry exactly BENCHMARK.json's metrics."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "nothing attempted"
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(units):
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}"
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            return f"metric {name}: {m}"
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            return f"metric {name} is not a finite number"
    return None


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in 64 bits", 2)

    started = time.monotonic()
    bins = build()
    built_for = time.monotonic() - started
    budget = (BUILD_BUDGET_S if built_for > 5 else RUN_BUDGET_S) - built_for
    exe = bins / ("perfbench-traced" if args.trace else "perfbench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--commit", commit()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(budget, 10), check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {max(budget, 10):.0f} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last line is not a JSON result")
    problem = check(result, args.trace)
    if problem:
        fail(problem)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
