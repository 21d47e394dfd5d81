#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 perfbench/run.py --workload explore-social --seed 2024 \
        --seconds 30 --trace 0

Builds perfbench/ (the program's libraries from src/ plus the benchmark in
perfbench.cc) under $CARGO_TARGET_DIR, default .bench_build, then runs
one workload with URSA_THREADS=1. The last line of standard output is
the JSON result; its metric names are checked against BENCHMARK.json.
Exits non-zero when the build fails, a correctness gate fails, or the
result does not match BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore-social", "control-social-diurnal", "firm-social-burst")
PROFILE = os.path.join(HERE, "profiles", "social-network.txt")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configure once, then build incrementally; logs go to stderr."""
    ninja = shutil.which("ninja")
    if not os.path.exists(
            os.path.join(out, "build.ninja" if ninja else "Makefile")):
        generator = ["-G", "Ninja"] if ninja else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--profile", PROFILE]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_file = os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_file]
        print(f"perfbench: spans -> {trace_file}", file=sys.stderr)
    env = dict(os.environ, URSA_THREADS="1")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        print("perfbench: no JSON result", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace)
    if want is not None and list(result["metrics"]) != want:
        print("perfbench: metrics differ from BENCHMARK.json:",
              sorted(set(result["metrics"]) ^ set(want)), file=sys.stderr)
        return 1
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
