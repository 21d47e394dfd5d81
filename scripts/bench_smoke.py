#!/usr/bin/env python3
"""CI smoke for the DES kernel bench + the ursa::trace overhead contract.

BENCH_kernel.json is a *trajectory*: one entry per PR that moved the
kernel, each recording a 'single' block for the canonical
single-simulation run. This smoke pins the working tree against the
LATEST trajectory entry:

  1. determinism  — a tracer-disabled run reproduces the exact single-
                    simulation event, cancelled-event and request
                    counts of the latest entry (same app, seed, and
                    simulated span). Counts are machine-independent,
                    so this check is bit-exact.
  2. zero perturbation — a sampling=1.0 run executes the *same* events
                    as the disabled run (tracing observes, never
                    steers);
  3. bounded overhead — full-rate tracing keeps at least
                    --min-traced-ratio of the disabled run's
                    throughput, both runs measured back to back on the
                    same machine.
  4. throughput floor — wall-clock throughput is machine-dependent, so
                    the pin is an explicit loose tolerance, not an
                    equality: the untraced single-run ev/s must reach
                    at least --tolerance of the latest entry's
                    single-run ev/s. This catches order-of-magnitude
                    regressions (a debug build, a broken fast path)
                    while tolerating slower CI machines.
  5. memory ceiling — the untraced run's peak RSS (getrusage
                    ru_maxrss) must stay within RSS_CEILING times the
                    latest entry's single-run peak_rss_mb. Like the
                    throughput floor it is loose: it catches a
                    structure that starts keeping what it used to
                    drop, not allocator noise.

Usage:
  bench_smoke.py --bench build/bench/bench_kernel \
                 --reference BENCH_kernel.json \
                 [--min-traced-ratio 0.5] [--tolerance 0.25]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

RSS_CEILING = 1.5


def run_bench(bench, sampling, sim_minutes, out_path):
    env = dict(os.environ)
    env["URSA_BENCH_REPS"] = "1"
    env["URSA_BENCH_SIM_MIN"] = str(sim_minutes)
    env["URSA_BENCH_OUT"] = out_path
    env["URSA_TRACE_SAMPLING"] = repr(sampling)
    subprocess.run([bench], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    with open(out_path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True,
                    help="path to the bench_kernel binary")
    ap.add_argument("--reference", required=True,
                    help="path to BENCH_kernel.json")
    ap.add_argument("--min-traced-ratio", type=float, default=0.5,
                    help="minimum (traced ev/s) / (untraced ev/s)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="minimum fraction of the recorded single-run "
                         "ev/s the untraced run must reach")
    args = ap.parse_args()

    with open(args.reference) as f:
        ref = json.load(f)
    latest = ref["trajectory"][-1]
    single_ref = latest["single"]
    sim_minutes = ref["sim_minutes"]

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        off = run_bench(args.bench, 0.0, sim_minutes,
                        os.path.join(tmp, "off.json"))
        on = run_bench(args.bench, 1.0, sim_minutes,
                       os.path.join(tmp, "on.json"))

    # 1. Bit-determinism against the latest recorded entry.
    for key in ("events", "cancelled", "requests"):
        if off.get(key) != single_ref.get(key):
            failures.append(
                f"tracer-disabled run diverged from the latest entry of "
                f"{args.reference} ({latest['label']!r}): single {key} "
                f"{off.get(key)} != {single_ref.get(key)}")

    # 2. Tracing must not change what the simulation does.
    for key in ("events", "cancelled", "requests"):
        if on.get(key) != off.get(key):
            failures.append(
                f"sampling=1.0 perturbed the simulation: {key} "
                f"{on.get(key)} != {off.get(key)}")

    # 3. Full-rate tracing overhead bound (same-machine comparison).
    ratio = on["events_per_sec"] / off["events_per_sec"]
    print(f"untraced: {off['events_per_sec'] / 1e6:.3f}M ev/s, "
          f"traced: {on['events_per_sec'] / 1e6:.3f}M ev/s "
          f"(ratio {ratio:.2f})")
    if ratio < args.min_traced_ratio:
        failures.append(
            f"full-rate tracing too slow: {ratio:.2f} < "
            f"{args.min_traced_ratio} of untraced throughput")

    # 4. Loose throughput floor against the recorded single-run number.
    floor = args.tolerance * single_ref["events_per_sec"]
    print(f"recorded single-run: "
          f"{single_ref['events_per_sec'] / 1e6:.3f}M ev/s, "
          f"floor at tolerance {args.tolerance}: {floor / 1e6:.3f}M ev/s")
    if off["events_per_sec"] < floor:
        failures.append(
            f"single-run throughput collapsed: "
            f"{off['events_per_sec'] / 1e6:.3f}M ev/s < {floor / 1e6:.3f}M "
            f"({args.tolerance} of the recorded "
            f"{single_ref['events_per_sec'] / 1e6:.3f}M)")

    # 5. Loose memory ceiling against the recorded single-run peak RSS.
    ceiling = RSS_CEILING * single_ref["peak_rss_mb"]
    print(f"peak RSS: {off['peak_rss_mb']:.1f} MB, recorded "
          f"{single_ref['peak_rss_mb']:.1f} MB, ceiling {ceiling:.1f} MB")
    if off["peak_rss_mb"] > ceiling:
        failures.append(
            f"single-run peak RSS grew: {off['peak_rss_mb']:.1f} MB > "
            f"{ceiling:.1f} MB ({RSS_CEILING} x the recorded "
            f"{single_ref['peak_rss_mb']:.1f} MB)")

    if failures:
        for msg in failures:
            print(f"bench_smoke FAIL: {msg}", file=sys.stderr)
        return 1
    print(f"bench_smoke OK: counts match the latest trajectory entry of "
          f"{args.reference} (events={off['events']}, "
          f"cancelled={off['cancelled']}, "
          f"requests={off['requests']}), tracing is "
          "zero-perturbation and within the overhead bound, peak RSS "
          "within its ceiling")
    return 0


if __name__ == "__main__":
    sys.exit(main())
