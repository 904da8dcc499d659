#!/usr/bin/env python3
"""Simulator benchmark: builds simbench from source and runs one workload.

    python3 simbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 simbench/run.py --self-check [--seed N] [--seconds S]

The library and the benchmark program are compiled (Release) into
.bench_build/simbench/ at the repository root on first use. The program
runs the workload in its own single-threaded process, so its peak RSS is
that workload's alone. This script checks the program's result against
BENCHMARK.json and prints it as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
the traced run also writes its spans (Chrome trace JSON) to
.bench_build/simbench/spans/. --self-check validates BENCHMARK.json, then
runs each workload it lists briefly in both modes and checks the output:
metric names and units, all end-to-end metrics present, no failed operation.
See simbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
PROGRAM = os.path.join(BUILD, "simbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Workloads the program knows; BENCHMARK.json lists the ones measured.
WORKLOADS = ("paper-suite", "shuffle-scale", "serve-chaos")
END_TO_END = ("tasks_per_s", "setup_s", "peak_rss_mb", "sim_jct_s")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# A run ends near --seconds; anything far past it is a hang.
GRACE_S = 100


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"library sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Concurrent runs in one checkout must not build over each other.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "simbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Problems with one result object; empty when it is well formed."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly correct/attempted/failed/metrics"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a non-negative whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    want = expected_metrics(trace)
    if set(metrics) != set(want):
        problems.append("metric names differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: needs exactly value and unit")
            continue
        value = m["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if not isinstance(m["unit"], str) or not UNIT.fullmatch(m["unit"]):
            problems.append(f"{name}: bad unit {m['unit']!r}")
        elif name in want and m["unit"] != want[name]:
            problems.append(f"{name}: unit {m['unit']} differs from "
                            f"BENCHMARK.json's {want[name]}")
    return problems


def run(workload, seed, seconds, trace):
    """Runs the program once; returns (result line, parsed result)."""
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {seconds + GRACE_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: no result line (exit {proc.returncode})")
    problems = check_result(result, trace)
    if problems:
        raise BenchError(f"{workload}: malformed result: " + "; ".join(problems))
    return lines[-1], result


def check_spec():
    """Problems with BENCHMARK.json itself."""
    with open(SPEC) as f:
        spec = json.load(f)
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        return [f"BENCHMARK.json keys must be exactly {sorted(keys)}"]
    workloads = [w["name"] for w in spec["workloads"]]
    if len(workloads) < 2 or not set(workloads) <= set(WORKLOADS):
        problems.append(f"workloads must be two or more of {WORKLOADS}")
    if tuple(m["name"] for m in spec["end_to_end"]) != END_TO_END:
        problems.append(f"end_to_end must be {END_TO_END}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(names)) != len(names):
        problems.append("metric names repeat")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m["unit"]):
            problems.append(f"bad name or unit in {m}")
        if m["better"] not in ("higher", "lower"):
            problems.append(f"{m['name']}: better must be higher or lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("every bound must lie in (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    return problems


def self_check(seed, seconds):
    problems = check_spec()
    with open(SPEC) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        for trace in (False, True):
            _, result = run(workload, seed, seconds, trace)
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: "
                                f"{result['failed']} failed operations")
            missing = set(END_TO_END) - set(result["metrics"])
            if not trace and missing:
                problems.append(f"{workload}: missing {sorted(missing)}")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload or --self-check is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # Termination stops the running child too: subprocess.run kills and
    # reaps it when the exception unwinds through it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        if args.self_check:
            return self_check(args.seed, args.seconds)
        line, result = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(line, flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
