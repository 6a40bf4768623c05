#!/usr/bin/env python3
"""Whole-run BDS benchmark.

Builds perfbench/bds_perf from the repository's sources, runs one workload
through the public BdsService API again and again for --seconds, checks every
repetition, and prints the metrics by name and unit. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload bulk_oneshot --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload thin_diurnal --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics over untraced repetitions, each its
own process (timings: the fastest repetition; the rest: the median).
--trace 1 makes the same untraced repetitions, then one traced repetition
whose counters and timers give the per-layer metrics; its Chrome trace is
written under the build directory.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
relative to the repository root. Build output goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # Leave the source directory as it was.
sys.path.insert(0, str(HERE))

import derive  # noqa: E402

# Workload -> initial trace-ring size (events). A traced repetition that
# still drops is rerun once with a ring sized from what it saw.
TRACE_CAPACITY = {
    "bulk_oneshot": 1 << 16,
    "steady_small_jobs": 1 << 17,
    "thin_diurnal": 1 << 20,
}

# Simulation-determined metrics: one seed gives one value on any machine.
DETERMINISTIC = ("admitted_frac", "job_p50_min", "job_tail_min")

MIN_REPS = 3
MAX_MEASURE_S = 120.0  # Keeps a whole invocation well inside three minutes.
REP_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build():
    """Configures once, then incrementally builds bds_perf; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources not found under %s" % (ROOT / "src"))
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "--target", "bds_perf", "-j", jobs],
                   stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return out / "bds_perf"


def run_rep(binary, workload, seed, trace_out=None, capacity=0):
    """One repetition in its own process; returns its raw record."""
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed]
    if trace_out is not None:
        cmd += ["--trace-out=" + str(trace_out), "--trace-capacity=%d" % capacity]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("bds_perf exited %d: %s" % (proc.returncode, proc.stderr.strip()[-400:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_traced(binary, workload, seed):
    out = build_dir() / "traces"
    out.mkdir(parents=True, exist_ok=True)
    trace_out = out / ("%s.json" % workload)
    capacity = TRACE_CAPACITY[workload]
    rep = run_rep(binary, workload, seed, trace_out, capacity)
    if rep["trace_dropped"] > 0:
        capacity = int((rep["trace_events"] + rep["trace_dropped"]) * 1.25)
        log("trace ring too small, rerunning with %d events" % capacity)
        rep = run_rep(binary, workload, seed, trace_out, capacity)
    log("wrote %d trace events to %s" % (rep["trace_events"], trace_out))
    return rep


def print_end_to_end(metrics, reps):
    first = reps[0]
    tail = derive.tail_percentile(first["job_minutes"])
    print("%-16s %14s  %-8s %s" % ("metric", "value", "unit", "note"))
    notes = {
        "job_p50_min": "%d %s samples" % (len(first["job_minutes"]), first["job_sample_kind"]),
        "job_tail_min": "p%d of the same samples" % tail[0] if tail else "",
        "decide_p50_ms": "%d cycles per repetition" % len(first["decide_ms"]),
    }
    for name, unit in derive.END_TO_END_UNITS.items():
        note = notes.get(name, "")
        if name in DETERMINISTIC:
            note = (note + "; " if note else "") + "simulation-deterministic"
        elif name in derive.TIMINGS:
            note = (note + "; " if note else "") + "fastest repetition"
        print("%-16s %14.6g  %-8s %s" % (name, metrics[name], unit, note))
    print("repetitions: %d" % len(reps))


def print_per_layer(workload, layers, traced):
    print("%-34s %14s  %s" % ("per-layer metric", "value", "unit"))
    for name, unit in derive.PER_LAYER_UNITS.items():
        print("%-34s %14.6g  %s" % (name, layers[name], unit))
    print()
    print("layer shares of the traced run_cpu_s (%.4f s)" % traced["run_cpu_s"])
    for name, seconds, share in derive.layer_shares(traced["run_cpu_s"],
                                                    derive.layer_rows(layers)):
        print("  %-38s %9.4f s %6.1f%%" % (name, seconds, 100.0 * share))
    # What each workload was chosen to stress; informational, not a gate.
    busy = layers["control.cycle_busy_s"]
    intents = {
        "bulk_oneshot": ("cycle self time >= 90% of cycle busy time",
                         layers["control.cycle_self_s"] >= 0.9 * busy),
        "steady_small_jobs": ("route busy time >= 50% of cycle busy time",
                              layers["lp.route_busy_s"] >= 0.5 * busy),
        "thin_diurnal": ("admission rejects jobs and the ladder moves",
                         layers["scheduler.admission_rejected"] > 0
                         and layers["control.rung_transitions"] > 0),
    }
    what, held = intents[workload]
    print("workload intent: %s: %s" % (what, "held" if held else "NOT HELD"))


def self_test():
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(TRACE_CAPACITY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the metric derivations on synthetic inputs")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
    except (RuntimeError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 2

    reps = []
    failures = []
    start = time.monotonic()
    budget = min(args.seconds, MAX_MEASURE_S)
    try:
        while len(reps) < MIN_REPS or time.monotonic() - start < budget:
            reps.append(run_rep(binary, args.workload, args.seed))
        traced = run_traced(binary, args.workload, args.seed) if args.trace else None
    except (RuntimeError, subprocess.SubprocessError, ValueError) as e:
        log("repetition failed: %s" % e)
        return 1

    everything = reps + ([traced] if traced else [])
    for i, rep in enumerate(everything):
        failures += ["repetition %d: %s" % (i, f) for f in derive.check_rep(rep)]
    failures += derive.check_run(everything)
    good = [r for r in reps if not derive.check_rep(r)]
    for f in failures:
        print("CHECK FAILED: " + f)
    if not good or (traced and derive.check_rep(traced)):
        log("no usable repetition: every untraced one, or the traced one, failed its checks")
        return 1

    print("workload %s, seed %d, %s" % (args.workload, args.seed,
                                         "traced" if traced else "untraced"))
    if traced:
        metrics = derive.per_layer(traced, statistics.median(r["run_cpu_s"] for r in good))
        print_per_layer(args.workload, metrics, traced)
        units = derive.PER_LAYER_UNITS
    else:
        metrics = derive.end_to_end(good)
        print_end_to_end(metrics, good)
        units = derive.END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": sum(r["jobs_offered"] for r in everything),
        "failed": sum(r["jobs_accepted"] - r["jobs_completed"] for r in everything),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
