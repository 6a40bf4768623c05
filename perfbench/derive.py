"""Metric derivations and correctness checks for the whole-run benchmark.

Everything here is a pure function of the raw per-repetition records that
bds_perf prints (one JSON object per process), so perfbench/test_derive.py can
check the arithmetic on fixed synthetic inputs.
"""

import math
import statistics

# Tail percentiles tried from the highest down; the first one with at least
# MIN_BEYOND samples ranked above it is reported. The ladder starts at p95:
# on thin_diurnal p99 moves 9-18% from one arrival seed to the next (it is set
# by the few worst overload peaks), p95 about 5%.
TAIL_LADDER = (95, 90, 75, 50)
MIN_BEYOND = 10

# The worst link overshoot a run may show, as a share of nominal capacity.
MAX_OVERSHOOT = 1e-9

# Metric name -> unit. End-to-end metrics come from untraced repetitions.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_cpu_s": "s",
    "run_wall_s": "s",
    "peak_rss_mb": "MB",
    "admitted_frac": "frac",
    "job_p50_min": "sim_min",
    "job_tail_min": "sim_min",
    "decide_p50_ms": "ms",
}

# Wall or CPU timings among them.
TIMINGS = ("setup_s", "run_cpu_s", "run_wall_s", "decide_p50_ms")

# Per-layer metrics come from the one traced repetition.
PER_LAYER_UNITS = {
    "simulator.component_solves": "count",
    "simulator.component_flows_mean": "flows",
    "simulator.component_flows_max": "flows",
    "simulator.events": "count",
    "simulator.flows_started": "count",
    "simulator.rate_changes_per_flow": "ratio",
    "control.cycle_busy_s": "s",
    "control.cycle_self_s": "s",
    "control.cancel_ratio": "ratio",
    "control.degraded_cycle_frac": "frac",
    "control.rung_transitions": "count",
    "control.overrun_cycles": "count",
    "scheduler.schedule_busy_s": "s",
    "scheduler.candidate_pops": "count",
    "scheduler.pops_per_selected": "ratio",
    "scheduler.cand_reuse_ratio": "ratio",
    "scheduler.admission_rejected": "count",
    "lp.route_busy_s": "s",
    "lp.solve_busy_s": "s",
    "lp.solves": "count",
    "lp.pushes_per_solve": "count",
    "lp.bound_skip_ratio": "ratio",
    "topology.build_ms": "ms",
    "topology.path_cache_hit_ratio": "ratio",
    "core.create_ms": "ms",
    "unattributed_s": "s",
    "telemetry.trace_overhead_ratio": "ratio",
    "telemetry.trace_dropped_events": "count",
}


def ratio(numerator, denominator):
    """numerator / denominator, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator > 0 else 0.0


def _rank(p, n):
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile(samples, p):
    """Nearest-rank p-th percentile."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(samples, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """(p, value) for the highest p in `ladder` whose nearest-rank value has
    at least `min_beyond` samples ranked above it, or None when even the
    lowest rung has too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in ladder:
        if n - _rank(p, n) >= min_beyond:
            return p, ordered[_rank(p, n) - 1]
    return None


def layer_shares(run_cpu_s, rows):
    """Rows of (name, seconds) plus an explicit unattributed remainder, so the
    seconds add up to run_cpu_s exactly. Each row gets its share of it."""
    named = sum(seconds for _, seconds in rows)
    table = list(rows) + [("unattributed", run_cpu_s - named)]
    return [(name, seconds, ratio(seconds, run_cpu_s)) for name, seconds in table]


def check_rep(rep):
    """Correctness failures of one repetition, as readable strings."""
    failures = []

    def need(ok, what):
        if not ok:
            failures.append(what)

    need(rep["stop_reason"] == "drained", "stop reason %s, not drained" % rep["stop_reason"])
    need(rep["pending_at_end"] == 0, "%d deliveries still owed" % rep["pending_at_end"])
    need(rep["jobs_completed"] == rep["jobs_accepted"],
         "%d admitted jobs, %d completed" % (rep["jobs_accepted"], rep["jobs_completed"]))
    need(rep["jobs_generated"] == rep["jobs_regenerated"] == rep["jobs_offered"],
         "jobs generated %d, replayed %d, offered %d"
         % (rep["jobs_generated"], rep["jobs_regenerated"], rep["jobs_offered"]))
    need(rep["jobs_accepted"] + rep["jobs_rejected"] == rep["jobs_offered"],
         "accepted + rejected != offered")
    if rep["owed"] >= 0:
        need(rep["credited"] == rep["owed"],
             "credited %d deliveries, owed %d" % (rep["credited"], rep["owed"]))
    else:
        need(rep["retired_blocks"] <= rep["credited"] <= rep["owed_upper"],
             "credited %d outside [%d, %d]"
             % (rep["credited"], rep["retired_blocks"], rep["owed_upper"]))
    need(rep["redundant"] == 0, "%d redundant deliveries" % rep["redundant"])
    need(rep["max_link_overshoot"] <= MAX_OVERSHOOT,
         "link overshoot %.3g" % rep["max_link_overshoot"])
    need(tail_percentile(rep["job_minutes"]) is not None,
         "%d job completion samples, too few for any tail percentile" % len(rep["job_minutes"]))
    need(len(rep["decide_ms"]) > 0, "no decision samples")
    if rep.get("traced"):
        need(rep["trace_dropped"] == 0, "trace dropped %d events" % rep["trace_dropped"])
    return failures


def check_run(reps):
    """Failures across repetitions of one seed: every fingerprint, traced or
    not, must be the same."""
    fingerprints = sorted({r["fingerprint"] for r in reps})
    if len(fingerprints) > 1:
        return ["fingerprints differ across repetitions: %s" % ", ".join(fingerprints)]
    return []


def rep_end_to_end(rep):
    """End-to-end metrics of one untraced repetition that passed check_rep."""
    return {
        "setup_s": rep["topology_build_s"] + rep["create_s"] + rep["submit_s"],
        "run_cpu_s": rep["run_cpu_s"],
        "run_wall_s": rep["run_wall_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "admitted_frac": ratio(rep["jobs_accepted"], rep["jobs_offered"]),
        "job_p50_min": percentile(rep["job_minutes"], 50),
        "job_tail_min": tail_percentile(rep["job_minutes"])[1],
        "decide_p50_ms": percentile(rep["decide_ms"], 50),
    }


def end_to_end(reps):
    """Every end-to-end metric over the repetitions of one seed. Repetitions
    run the identical computation, so their timings differ only by what the
    machine adds, and that only ever slows them down: a timing reports the
    fastest repetition. Every other metric is the median (for the
    simulation-deterministic ones, all repetitions agree anyway)."""
    per_rep = [rep_end_to_end(r) for r in reps]
    return {name: (min if name in TIMINGS else statistics.median)([m[name] for m in per_rep])
            for name in END_TO_END_UNITS}


def per_layer(traced, untraced_run_cpu_s):
    """Per-layer metrics of the traced repetition. Timers record milliseconds;
    controller.cycle spans the whole cycle, including the simulator advance,
    so its self time is the cycle minus the schedule and route spans."""
    counters = traced["counters"]
    hists = traced["histograms"]

    def count(name):
        return counters.get(name, 0)

    def busy_s(name):
        return hists.get(name, {}).get("sum", 0.0) / 1e3

    comp = hists.get("sim.component_flows", {"count": 0, "sum": 0.0, "max": 0.0})
    cycle_busy = busy_s("controller.cycle")
    schedule_busy = busy_s("scheduler.schedule")
    route_busy = busy_s("scheduler.route")
    reused = count("scheduler.cand_slots_reused")
    pushes = count("fptas.pushes")
    skips = count("fptas.bound_skips")
    hits = count("path_cache.hits")
    return {
        "simulator.component_solves": count("sim.component_solves"),
        "simulator.component_flows_mean": ratio(comp["sum"], comp["count"]),
        "simulator.component_flows_max": comp["max"],
        "simulator.events": count("sim.events"),
        "simulator.flows_started": count("sim.flows_started"),
        "simulator.rate_changes_per_flow": ratio(traced["rate_changes"],
                                                 count("sim.flows_started")),
        "control.cycle_busy_s": cycle_busy,
        "control.cycle_self_s": cycle_busy - schedule_busy - route_busy,
        "control.cancel_ratio": ratio(count("controller.transfers_cancelled"),
                                      count("controller.transfers_started")),
        "control.degraded_cycle_frac": ratio(traced["degraded_cycles"], traced["total_cycles"]),
        "control.rung_transitions": traced["rung_transitions"],
        "control.overrun_cycles": traced["overrun_cycles"],
        "scheduler.schedule_busy_s": schedule_busy,
        "scheduler.candidate_pops": count("scheduler.candidate_pops"),
        "scheduler.pops_per_selected": ratio(count("scheduler.candidate_pops"),
                                             count("scheduler.blocks_selected")),
        "scheduler.cand_reuse_ratio": ratio(reused, reused + count("scheduler.cand_slots_repriced")),
        "scheduler.admission_rejected": traced["jobs_rejected"],
        "lp.route_busy_s": route_busy,
        "lp.solve_busy_s": busy_s("fptas.solve"),
        "lp.solves": count("fptas.solves"),
        "lp.pushes_per_solve": ratio(pushes, count("fptas.solves")),
        "lp.bound_skip_ratio": ratio(skips, pushes + skips),
        "topology.build_ms": traced["topology_build_s"] * 1e3,
        "topology.path_cache_hit_ratio": ratio(hits, hits + count("path_cache.misses")),
        "core.create_ms": traced["create_s"] * 1e3,
        "unattributed_s": traced["run_cpu_s"] - cycle_busy,
        "telemetry.trace_overhead_ratio": ratio(traced["run_cpu_s"], untraced_run_cpu_s),
        "telemetry.trace_dropped_events": traced["trace_dropped"],
    }


def layer_rows(layers):
    """The layer-share rows of a traced run, in blocking order."""
    return [
        ("scheduler.schedule", layers["scheduler.schedule_busy_s"]),
        ("lp.route (scheduler.route)", layers["lp.route_busy_s"]),
        ("control.cycle self (incl. simulator)", layers["control.cycle_self_s"]),
    ]
