#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and the benchmark executable the mode needs (perfbench for
--trace 0, perfbench_traced for --trace 1) are compiled into
.bench_build/perfbench (configured once, rebuilt incrementally). Build output
goes to stderr; stdout carries the benchmark's table and, as its last line, the
JSON result with the metrics BENCHMARK.json declares: "end_to_end" for
--trace 0, "per_layer" for --trace 1 (0 for a layer the workload does not
exercise). A traced run also writes its spans as Chrome trace-event JSON to
.bench_build/traces/<workload>-seed<n>.trace.json (open it in Perfetto).
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("paper_sweep", "fault_campaign", "native_ftgemm")


def run_build(cmd):
    """Run one build step with its output on stderr; exit if it fails."""
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=dict(os.environ, TMPDIR=tmp))
    if proc.returncode != 0:
        sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources (src/) next to perfbench/",
              file=sys.stderr)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_build(["cmake", "-S", SOURCE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_build(["cmake", "--build", BUILD, "-j", jobs, "--target", target])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    exe = "perfbench_traced" if args.trace == "1" else "perfbench"
    build(exe)
    cmd = [os.path.join(BUILD, exe), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace == "1":
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, f"{args.workload}-seed{args.seed}.trace.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace == "1" else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in declared:
        value = measured.get(m["name"], {}).get("value")
        if value is None and args.trace == "1":
            value = 0.0  # a layer this workload does not exercise
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"perfbench: metric {m['name']} is {value!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result["metrics"] = metrics
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
