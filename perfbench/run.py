#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload train64 --seed 1 --seconds 45 --trace 0

The first call configures and builds perfbench/ (the simulator library
from src/ plus the benchmark program) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls only rebuild what changed.  It
then runs the benchmark's self-test and the workload, checks the result
against the metric list in BENCHMARK.json and prints it as the last line:

    {"correct": true, "attempted": 240, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones; the traced run also writes its spans under .bench_out/.
Exits non-zero, printing no result, when the build, the self-test or the
schema check fails; exits non-zero after printing the result when the
benchmark found a wrong output.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def metric_spec(spec, trace):
    """{name: unit} of the metrics a run with this trace flag must report."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, spec, trace):
    """Problems with `result` against BENCHMARK.json `spec`; [] if none."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    want_keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != want_keys:
        problems.append(f"result keys {sorted(result)} != {sorted(want_keys)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    want = metric_spec(spec, trace)
    for name in sorted(set(want) - set(metrics)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(metrics) - set(want)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name in sorted(set(want) & set(metrics)):
        m = metrics[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"metric {name} is not {{value, unit}}")
            continue
        if m["unit"] != want[name]:
            problems.append(f"metric {name} unit {m['unit']} != {want[name]}")
        value = m["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"metric {name} value is not a number")
    return problems


def build(build_dir):
    """Configures (once) and builds the package; False on a failed step."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(f"build step failed: {' '.join(cmd)}\n")
            return False
    return True


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "perfbench").resolve()
    if not build(build_dir):
        return 1
    selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        return 1

    proc = subprocess.run(
        [str(build_dir / "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(ROOT / ".bench_out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write("benchmark printed nothing\n")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(f"last line is not JSON: {lines[-1]}\n")
        return 1
    problems = validate(result, spec, args.trace)
    if problems:
        sys.stderr.write("".join(f"schema: {p}\n" for p in problems))
        return 1
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
