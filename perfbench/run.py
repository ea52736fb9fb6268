#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s>
                             --trace <0|1> [--scale full|tiny]

Run from the root of a checkout. The first call compiles perfbench/ and the
library sources it measures into $CARGO_TARGET_DIR (default .bench_build);
later calls only rebuild what changed.

The measuring program prints human-readable lines and then one JSON line.
This script passes the lines through, checks the JSON against BENCHMARK.json
(every metric of the run's kind, each with its unit, nothing else) and prints
it last. With --trace 0 the metrics are the end_to_end list, with --trace 1
the per_layer list. A failed build, a crashed run, a malformed result or a
failed output check exits non-zero; of these only a failed output check
prints a result line (with "correct": false).

--workload all runs every workload in turn and ends with one summary line
whose metrics are the workload-specific names ("named" lines), prefixed with
the workload.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
NAMED = re.compile(r"^named\s+(\S+)\s+(\S+)\s+(\S+)")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(spec, trace):
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def validate(result, expected):
    """Return an error string, or None when the result meets the contract."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys must be correct, attempted, failed, metrics"
    if not isinstance(result["correct"], bool):
        return "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} must be a whole number"
    if result["attempted"] < 1:
        return "attempted must be at least 1"
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"unlisted {extra}"
    for name, unit in expected.items():
        entry = metrics[name]
        value = entry.get("value")
        if entry.get("unit") != unit:
            return f"{name}: unit {entry.get('unit')!r}, expected {unit!r}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name}: value {value!r} is not a finite number"
    return None


def run_one(binary, spec, workload, args):
    """Run one workload; return (exit code, result dict or None, named)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 4, None, {}
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    named = {}
    for line in lines:
        match = NAMED.match(line)
        if match:
            named[match.group(1)] = {"value": float(match.group(2)),
                                     "unit": match.group(3)}
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: exit {done.returncode}, no result line")
        return done.returncode or 3, None, named
    error = validate(result, expected_metrics(spec, args.trace))
    if error:
        log(f"{workload}: {error}")
        return 3, None, named
    return done.returncode, result, named


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as error:
        log(f"cannot read BENCHMARK.json: {error}")
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose from {names}")
        return 2
    binary = build()
    if binary is None:
        return 2

    if args.workload != "all":
        code, result, _ = run_one(binary, spec, args.workload, args)
        if result is None:
            return code or 3
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            log(f"{args.workload}: output check failed")
        return code

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in names:
        code, result, named = run_one(binary, spec, workload, args)
        worst = worst or code
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        source = named if args.trace == 0 else result["metrics"]
        for name, entry in source.items():
            summary["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(summary), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
