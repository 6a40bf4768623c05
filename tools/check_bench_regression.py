#!/usr/bin/env python3
"""Perf-regression gate for the committed benchmark baselines.

Compares a fresh run of a sweep benchmark (``bench_fig11_scalability``,
``bench_sim_hotpath``) against its committed baseline JSON at the repo root
(``BENCH_controller.json``, ``BENCH_simulator.json``) and fails when an
optimization config regressed by more than the threshold (25% by default).
The two files must carry the same ``benchmark`` name.

The main comparison is *config-relative*, not absolute: for every (point,
config) the metric is ``seconds[config] / seconds[reference_config]`` within
the same JSON file — how much faster than the reference config that config
is. Absolute wall-clock differs run to run with machine load (we observe
±25% on shared runners), but the within-run ratio between two configs timed
back-to-back in the same process is stable. A real regression — an
optimization losing its edge — shows up as the fresh ratio exceeding the
committed ratio. Families with no in-file reference to normalize by (the
simulator's "large_points", the controller's fleet points, whose shard
counts split only the selection queue — routing is the same single FPTAS
solve — and so make the same decision at about the same cost) are gated on
absolute CPU seconds against a generous threshold instead.

Work counters are gated exactly. A simulator baseline's ``work_points``
record what one drain of a point does (component solves, retained
re-solves, phase-1 scale-down rounds and re-summed terms). They depend on
the code, not on the machine, so a fresh run must reproduce every committed
value: a change that adds simulator work fails on every machine, and a
change that means to move them updates the baseline in the same commit.

Usage:
  check_bench_regression.py --bench ./bench_fig11_scalability \
      --baseline BENCH_controller.json            # run --smoke, then compare
  check_bench_regression.py --fresh out.json --baseline BENCH_controller.json
  check_bench_regression.py --bench ... --baseline ... --update
      # rewrite the baseline from a fresh *full* sweep instead of comparing
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

DEFAULT_THRESHOLD = 0.25
# Config-relative ratios of points whose reference run is shorter than this
# (seconds) are dominated by timer resolution and process-startup jitter, not
# by the code under test — they are printed but not gated.
DEFAULT_MIN_RUNTIME = 0.002
# "large_points" (incremental-only scale points, no in-file reference config
# to normalize by) and the controller's fleet points are gated on absolute
# CPU seconds instead. Shared runners show ±50% wall noise at these sizes, so
# only a >2x slowdown — an order-of-magnitude regression territory, e.g. the
# SoA hot path losing its edge — fails the gate.
DEFAULT_LARGE_THRESHOLD = 1.0
# The config every other config is normalized by, when the JSON does not
# name one via its "reference_config" field.
DEFAULT_REFERENCE_CONFIG = "baseline"
# Steady-state baselines (``BENCH_steady.json``, stamped ``"mode":
# "steady"``) are gated differently: every column is
# simulation-deterministic (fixed seeds, modeled cycle costs — no wall
# clock), so instead of timing ratios the gate compares the service-level
# metrics per load-factor point against tight tolerances. Fingerprints are
# printed for drift diagnosis but not gated bitwise: an intentional
# algorithm change legitimately moves them, and the metric tolerances are
# the behavioural contract.
STEADY_METRICS = {
    # metric -> (absolute floor, relative tolerance vs committed value)
    "completed": (25, 0.15),
    "rejected": (25, 0.15),
    "overrun_cycles": (25, 0.15),
    "p99_minutes": (2.0, 0.15),
}

# Only gate (point, config) pairs whose committed relative time shows the
# optimization had a *strong* edge there (e.g. the incremental simulator at
# a fraction of ReferenceSimulator, the simulator's straightforward event
# loop in tests/oracles.h). A config near 1.0x of the
# reference (a controller cycle with a sharded selection queue against the
# unsharded one) has nothing to regress and its ratio is dominated by
# measurement noise — gating it produces flaky failures, not signal. For the strong-edge configs a real
# regression (the optimization breaking or losing its edge) moves the ratio
# toward 1.0 — a +70-150% jump, far beyond both noise and the threshold.
EDGE_CUTOFF = 0.7


def load(path):
    with open(path) as f:
        data = json.load(f)
    if not data.get("benchmark"):
        raise SystemExit(f"{path}: missing 'benchmark' name")
    # A --large-only run legitimately carries only "large_points".
    if not data.get("points") and not data.get("large_points"):
        raise SystemExit(f"{path}: no sweep points")
    return data


def reference_config(data):
    return data.get("reference_config", DEFAULT_REFERENCE_CONFIG)


def point_size(point):
    """The sweep axis: 'blocks' for the controller bench, 'flows' for the
    simulator bench."""
    size = point.get("blocks", point.get("flows"))
    if size is None:
        raise SystemExit(f"point {point}: no 'blocks'/'flows' size key")
    return size


def relative_times(data, key):
    """{(size, config): t[config] / t[reference]} for time field `key`."""
    ref_config = reference_config(data)
    out = {}
    for point in data.get("points", []):
        seconds = point[key]
        ref = seconds.get(ref_config)
        if not ref or ref <= 0:
            raise SystemExit(f"point {point_size(point)}: missing '{ref_config}' time")
        for config, secs in seconds.items():
            out[(point_size(point), config)] = secs / ref
    return out


def absolute_times(data, key):
    """{(size, config): t[config]} for time field `key` (min-runtime floor)."""
    out = {}
    for point in data.get("points", []):
        for config, secs in point[key].items():
            out[(point_size(point), config)] = secs
    return out


def time_field(*datas):
    """Gate on CPU time when both files carry it (deterministic work -> stable
    CPU time even on a contended runner); fall back to wall seconds."""
    if all(all("cpu_seconds" in p for p in d.get("points", [])) for d in datas):
        return "cpu_seconds"
    return "seconds"


def large_times(data):
    """{(flows, 'incremental'): cpu} for the simulator's incremental-only
    'large_points' family."""
    return {(p["flows"], "incremental"): p.get("cpu_seconds", p.get("seconds"))
            for p in data.get("large_points", [])}


def fleet_times(data):
    """{(blocks, config): cpu} for the controller's fleet points (the points
    stamped with a 'jobs' workload shape)."""
    return {(p["blocks"], config): secs
            for p in data.get("points", []) if "jobs" in p
            for config, secs in p["cpu_seconds"].items()}


def compare_absolute(title, base, fresh, threshold):
    """Absolute-CPU gate over {(size, config): cpu} maps. Returns (compared,
    failures) where failures is a list of (size, config, committed, fresh,
    delta). Keys present in only one map — e.g. a smoke run scales 10^6
    flows down to 10^5, or skips the 10^7-block fleet point — are
    skipped."""
    common = sorted(set(base) & set(fresh))
    failures = []
    if not common:
        return 0, failures
    print(f"\n{title} (absolute cpu_seconds):")
    print(f"{'size':>10}  {'config':>20}  {'committed':>10}  {'fresh':>10}  {'delta':>7}")
    for key in common:
        was, now = base[key], fresh[key]
        delta = now / was - 1.0
        flag = ""
        if delta > threshold:
            failures.append((key[0], key[1], was, now, delta))
            flag = "  REGRESSION"
        print(f"{key[0]:>10}  {key[1]:>20}  {was:>10.3f}  {now:>10.3f}  {delta:>+6.1%}{flag}")
    return len(common), failures


TELEMETRY_OVERHEAD_MAX = 1.03


def compare_telemetry_overhead(fresh_data):
    """Gate on the all-on telemetry tax measured by the bench itself: the
    fresh run's telemetry_overhead.ratio (instrumented / off CPU on the
    1e5-flow incremental drain) must stay within TELEMETRY_OVERHEAD_MAX.
    This is a fresh-run-only absolute gate — the contract is a property of
    the code, not a comparison against the committed numbers. Returns
    (compared, failures)."""
    section = fresh_data.get("telemetry_overhead")
    if not section:
        return 0, []
    ratio = section.get("ratio", 1.0)
    off = section.get("off_cpu_seconds", 0.0)
    on = section.get("on_cpu_seconds", 0.0)
    flag = ""
    failures = []
    if ratio > TELEMETRY_OVERHEAD_MAX:
        failures.append((section.get("flows", 0), off, on, ratio))
        flag = "  REGRESSION"
    print(f"\ntelemetry overhead (all-on vs off, {section.get('flows', 0)} flows):")
    print(f"  off {off * 1e3:.1f} ms, on {on * 1e3:.1f} ms, ratio {ratio:.3f}x "
          f"(max {TELEMETRY_OVERHEAD_MAX:.2f}x){flag}")
    return 1, failures


def compare_amortized(baseline_data, fresh_data, threshold):
    """Cross-cycle gate for the "steady_cycles" section written by
    bench_fig11_scalability: N consecutive cycles of one long-lived
    controller with ~5% job churn, every cycle built from scratch. The mean
    CPU of the later cycles (1..N-1) is checked against the committed value
    under `threshold`, only when both runs used the same block count (a
    smoke run shrinks the workload, which legitimately moves CPU). The first
    cycle's CPU and the peak RSS are printed, not gated. Returns (compared,
    failures) where failures is a list of human-readable strings."""
    base = baseline_data.get("steady_cycles")
    fresh = fresh_data.get("steady_cycles")
    if not base or not fresh:
        return 0, []
    print("\nsteady cycles (first cycle "
          f"{fresh.get('first_cpu_seconds', 0.0):.3f}s, peak RSS "
          f"{fresh.get('peak_rss_mb', 0.0):.0f} MB; not gated):")
    if base.get("blocks") != fresh.get("blocks"):
        print(f"  (committed run at {base.get('blocks')} blocks, fresh at "
              f"{fresh.get('blocks')}; absolute checks skipped)")
        return 0, []
    was = base.get("later_cpu_seconds", 0.0)
    now = fresh.get("later_cpu_seconds", 0.0)
    delta = now / was - 1.0 if was > 0 else float("inf")
    failures = []
    flag = ""
    if delta > threshold:
        failures.append(f"later cpu_seconds: mean later-cycle CPU {was:.3f}s -> "
                        f"{now:.3f}s ({delta:+.1%})")
        flag = "  REGRESSION"
    print(f"  {'later cpu_seconds':>24}  {was:.3f} -> {now:.3f} ({delta:+.1%}){flag}")
    return 1, failures


WORK_COUNTERS = ("component_solves", "retained_solves", "pinned_rounds",
                 "pinned_resum_terms")


def compare_work(baseline_data, fresh_data):
    """Exact gate on the committed "work_points": every committed (shape,
    flows) point must be in the fresh run with every counter equal. Returns
    (compared, failures) where failures is a list of human-readable
    strings."""
    base = {(p["shape"], p["flows"]): p for p in baseline_data.get("work_points", [])}
    if not base:
        return 0, []
    fresh = {(p["shape"], p["flows"]): p for p in fresh_data.get("work_points", [])}
    failures = []
    print("\nwork points (exact):")
    for key in sorted(base):
        if key not in fresh:
            failures.append(f"{key[0]} {key[1]}: missing from the fresh run")
            print(f"  {key[0]} {key[1]}: MISSING")
            continue
        for counter in WORK_COUNTERS:
            was, now = base[key].get(counter), fresh[key].get(counter)
            flag = ""
            if was != now:
                failures.append(f"{key[0]} {key[1]} {counter}: {was} -> {now}")
                flag = "  CHANGED"
            print(f"  {key[0]} {key[1]} {counter:>20}: {was} -> {now}{flag}")
    return len(base), failures


def run_bench(bench, smoke):
    fd, path = tempfile.mkstemp(suffix=".json", prefix="bench_fresh_")
    os.close(fd)
    # --sweep-only keeps the full point set but skips the google-benchmark
    # section, so a regenerated baseline is timed under the same process
    # conditions as the smoke runs it will gate.
    cmd = [bench, f"--json={path}", "--smoke" if smoke else "--sweep-only"]
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)
    return path


def compare_steady(baseline_data, fresh_data):
    """Tolerance gate for the deterministic steady-state sweep. Returns the
    number of out-of-tolerance (point, metric) pairs."""
    baseline_points = {p["load_factor"]: p for p in baseline_data["points"]}
    fresh_points = {p["load_factor"]: p for p in fresh_data["points"]}
    common = sorted(set(baseline_points) & set(fresh_points))
    if not common:
        raise SystemExit("steady mode: no common load_factor points")

    failures = []
    compared = 0
    print(f"{'load':>6}  {'metric':>16}  {'committed':>10}  {'fresh':>10}  {'allowed':>8}")
    for load in common:
        base, fresh = baseline_points[load], fresh_points[load]
        for metric, (abs_floor, rel_tol) in STEADY_METRICS.items():
            if metric not in base or metric not in fresh:
                continue
            was, now = base[metric], fresh[metric]
            allowed = max(abs_floor, rel_tol * abs(was))
            delta = abs(now - was)
            compared += 1
            flag = ""
            if delta > allowed:
                failures.append((load, metric, was, now, allowed))
                flag = "  REGRESSION"
            print(f"{load:>6.2f}  {metric:>16}  {was:>10.3f}  {now:>10.3f}"
                  f"  {allowed:>8.3f}{flag}")
        if base.get("fingerprint") != fresh.get("fingerprint"):
            print(f"{load:>6.2f}  {'fingerprint':>16}  {base.get('fingerprint')} -> "
                  f"{fresh.get('fingerprint')}  (informational, not gated)")

    if compared == 0:
        print("error: no gateable steady metrics common to the two files",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} steady metric(s) out of tolerance:", file=sys.stderr)
        for load, metric, was, now, allowed in failures:
            print(f"  load {load}: {metric} {was} -> {now} (allowed ±{allowed:.3f})",
                  file=sys.stderr)
        return 1
    print(f"\nOK: {compared} steady metrics within tolerance of the committed baseline")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument("--bench", help="bench binary to run for fresh numbers")
    parser.add_argument("--fresh", help="pre-generated fresh JSON (instead of --bench)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed relative slowdown (default 0.25 = 25%%)")
    parser.add_argument("--min-runtime", type=float, default=DEFAULT_MIN_RUNTIME,
                        help="skip (point, config) pairs whose absolute time in "
                             "either file is below this many seconds "
                             f"(default {DEFAULT_MIN_RUNTIME})")
    parser.add_argument("--large-threshold", type=float, default=DEFAULT_LARGE_THRESHOLD,
                        help="allowed absolute-CPU slowdown for 'large_points' "
                             f"(default {DEFAULT_LARGE_THRESHOLD} = 100%%)")
    parser.add_argument("--full", action="store_true",
                        help="run the full sweep instead of --smoke")
    parser.add_argument("--update", action="store_true",
                        help="rewrite --baseline from a fresh full sweep")
    args = parser.parse_args()

    if args.update:
        if not args.bench:
            parser.error("--update requires --bench")
        path = run_bench(args.bench, smoke=False)
        os.replace(path, args.baseline)
        print(f"baseline updated: {args.baseline}")
        return 0

    if bool(args.bench) == bool(args.fresh):
        parser.error("exactly one of --bench / --fresh is required")
    fresh_path = args.fresh or run_bench(args.bench, smoke=not args.full)

    baseline_data = load(args.baseline)
    fresh_data = load(fresh_path)
    if baseline_data["benchmark"] != fresh_data["benchmark"]:
        raise SystemExit(f"benchmark mismatch: baseline is "
                         f"'{baseline_data['benchmark']}', fresh run is "
                         f"'{fresh_data['benchmark']}'")
    # The committed baselines time the telemetry-off fast path. A fresh run
    # stamped telemetry_enabled=true timed the instrumented path instead —
    # the comparison would be apples-to-oranges, and a quietly-enabled
    # registry in the bench harness is itself a bug worth failing on.
    if fresh_data.get("telemetry_enabled", False):
        raise SystemExit(f"{fresh_path}: fresh run had telemetry enabled; "
                         "bench timings must be taken with telemetry off")
    # The flight recorder is held to the same contract: the gated sweep points
    # must time the recorder-off fast path (the telemetry_overhead section is
    # the one place the instrumented path is measured, deliberately).
    if fresh_data.get("flight_recorder_enabled", False):
        raise SystemExit(f"{fresh_path}: fresh run had the flight recorder "
                         "enabled; bench timings must be taken with it off")
    if baseline_data.get("mode") == "steady" or fresh_data.get("mode") == "steady":
        if baseline_data.get("mode") != fresh_data.get("mode"):
            raise SystemExit("mode mismatch: one file is a steady-state sweep "
                             "and the other is a timing sweep")
        return compare_steady(baseline_data, fresh_data)
    ref_config = reference_config(baseline_data)
    field = time_field(baseline_data, fresh_data)
    print(f"comparing '{field}' ratios vs '{ref_config}'")
    committed = relative_times(baseline_data, field)
    fresh = relative_times(fresh_data, field)
    committed_abs = absolute_times(baseline_data, field)
    fresh_abs = absolute_times(fresh_data, field)

    # Collect the per-point relative times of every config present in both
    # files, then gate on the MEDIAN across points. A real regression — an
    # optimization breaking or losing its edge — moves every point's ratio
    # toward 1.0 at once; single-point excursions are measurement noise.
    # Points whose absolute runtime in either file sits below the min-runtime
    # floor are printed but excluded: a ratio of two sub-millisecond timings
    # measures the scheduler, not the code.
    per_config = {}
    floored = 0
    print(f"{'size':>10}  {'config':>20}  {'committed':>9}  {'fresh':>9}  {'delta':>7}")
    for key in sorted(fresh):
        if key not in committed or key[1] == ref_config:
            continue
        was, now = committed[key], fresh[key]
        ref_key = (key[0], ref_config)
        below_floor = any(abs_times.get(k, 0.0) < args.min_runtime
                          for abs_times in (committed_abs, fresh_abs)
                          for k in (key, ref_key))
        note = ""
        if below_floor:
            floored += 1
            note = "  (below min-runtime floor, not gated)"
        print(f"{key[0]:>10}  {key[1]:>20}  {was:>9.3f}  {now:>9.3f}"
              f"  {now / was - 1.0:>+6.1%}{note}")
        if not below_floor:
            per_config.setdefault(key[1], []).append((was, now))
    if floored:
        print(f"({floored} point(s) below the {args.min_runtime * 1e3:.1f} ms floor "
              "excluded from the gate)")

    def median(values):
        values = sorted(values)
        mid = len(values) // 2
        return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2

    compared = 0
    failures = []
    print(f"\n{'config':>20}  {'median committed':>16}  {'median fresh':>12}  {'delta':>7}")
    for config, pairs in sorted(per_config.items()):
        was = median([p[0] for p in pairs])
        now = median([p[1] for p in pairs])
        delta = now / was - 1.0
        if was >= EDGE_CUTOFF:
            print(f"{config:>20}  {was:>16.3f}  {now:>12.3f}  {delta:>+6.1%}"
                  "  (not gated: no committed edge)")
            continue
        compared += 1
        flag = ""
        if delta > args.threshold:
            failures.append((config, was, now, delta))
            flag = "  REGRESSION"
        print(f"{config:>20}  {was:>16.3f}  {now:>12.3f}  {delta:>+6.1%}{flag}")

    large_compared, large_failures = compare_absolute(
        "large points", large_times(baseline_data), large_times(fresh_data),
        args.large_threshold)
    fleet_compared, fleet_failures = compare_absolute(
        "fleet points", fleet_times(baseline_data), fleet_times(fresh_data),
        args.large_threshold)
    large_compared += fleet_compared
    large_failures += fleet_failures
    overhead_compared, overhead_failures = compare_telemetry_overhead(fresh_data)
    amortized_compared, amortized_failures = compare_amortized(
        baseline_data, fresh_data, args.large_threshold)
    work_compared, work_failures = compare_work(baseline_data, fresh_data)
    if compared == 0 and large_compared == 0 and amortized_compared == 0 \
            and overhead_compared == 0 and work_compared == 0:
        print("error: no gateable configs common to the two files", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} regression(s) beyond {args.threshold:.0%} "
              f"(median config-relative time vs '{ref_config}'):", file=sys.stderr)
        for config, was, now, delta in failures:
            print(f"  {config}: {was:.3f} -> {now:.3f} ({delta:+.1%})", file=sys.stderr)
    if large_failures:
        print(f"\n{len(large_failures)} absolute-CPU regression(s) beyond "
              f"{args.large_threshold:.0%}:", file=sys.stderr)
        for size, config, was, now, delta in large_failures:
            print(f"  {size} {config}: {was:.3f}s -> {now:.3f}s ({delta:+.1%})",
                  file=sys.stderr)
    if amortized_failures:
        print(f"\n{len(amortized_failures)} amortized steady-cycle check(s) failed:",
              file=sys.stderr)
        for failure in amortized_failures:
            print(f"  {failure}", file=sys.stderr)
    if overhead_failures:
        print(f"\ntelemetry overhead beyond {TELEMETRY_OVERHEAD_MAX:.2f}x:",
              file=sys.stderr)
        for flows, off, on, ratio in overhead_failures:
            print(f"  {flows} flows: {off:.3f}s off -> {on:.3f}s all-on "
                  f"({ratio:.3f}x)", file=sys.stderr)
    if work_failures:
        print(f"\n{len(work_failures)} work counter(s) differ from the committed "
              "values:", file=sys.stderr)
        for failure in work_failures:
            print(f"  {failure}", file=sys.stderr)
    if failures or large_failures or amortized_failures or overhead_failures \
            or work_failures:
        return 1
    print(f"\nOK: {compared} configs"
          + (f" + {large_compared} absolute points" if large_compared else "")
          + (f" + {amortized_compared} amortized checks" if amortized_compared else "")
          + (f" + {overhead_compared} overhead check" if overhead_compared else "")
          + (f" + {work_compared} exact work points" if work_compared else "")
          + f" within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
