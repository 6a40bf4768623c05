"""Self-test of the benchmark's own derivations on fixed synthetic inputs.

  python3 perfbench/run.py --self-test
"""

import json
import unittest
from pathlib import Path

import derive


def synthetic_rep(**overrides):
    """A repetition record that passes every check."""
    rep = {
        "traced": False,
        "topology_build_s": 0.001,
        "create_s": 0.002,
        "submit_s": 0.0005,
        "run_cpu_s": 2.0,
        "run_wall_s": 2.1,
        "peak_rss_mb": 14.0,
        "stop_reason": "drained",
        "fingerprint": "00000000000000aa",
        "max_link_overshoot": -0.2,
        "total_cycles": 20,
        "credited": 300,
        "owed": 300,
        "owed_upper": 300,
        "retired_blocks": 0,
        "redundant": 0,
        "pending_at_end": 0,
        "jobs_generated": 4,
        "jobs_regenerated": 4,
        "jobs_offered": 4,
        "jobs_accepted": 3,
        "jobs_rejected": 1,
        "jobs_deferred": 0,
        "jobs_completed": 3,
        "overrun_cycles": 2,
        "rung_transitions": 4,
        "degraded_cycles": 5,
        "job_sample_kind": "admitted_job",
        "job_minutes": [float(i) for i in range(1, 101)],
        "decide_ms": [1.0, 2.0, 3.0, 4.0, 5.0],
    }
    rep.update(overrides)
    return rep


class PercentileRuleTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 1000 samples: rank 990 leaves exactly 10 above it.
        self.assertEqual(derive.tail_percentile(range(1, 1001), ladder=(99, 95)), (99, 990))
        # 999 samples: p99 leaves 9 above, p95 (rank 950) leaves 49.
        self.assertEqual(derive.tail_percentile(range(1, 1000), ladder=(99, 95)), (95, 950))
        # 200 samples: p95 leaves exactly 10; 199 fall to p90.
        self.assertEqual(derive.tail_percentile(range(1, 201)), (95, 190))
        self.assertEqual(derive.tail_percentile(range(1, 200)), (90, 180))

    def test_falls_down_the_ladder(self):
        # 60 samples (one per destination server): p90 leaves 6, p75 leaves 15.
        self.assertEqual(derive.tail_percentile(range(1, 61)), (75, 45))
        # 20 samples: only the median leaves ten above.
        self.assertEqual(derive.tail_percentile(range(1, 21)), (50, 10))

    def test_too_few_samples_report_nothing(self):
        self.assertIsNone(derive.tail_percentile(range(1, 20)))
        self.assertIsNone(derive.tail_percentile([]))

    def test_order_does_not_matter(self):
        samples = list(range(1, 1001))
        self.assertEqual(derive.tail_percentile(reversed(samples)), (95, 950))

    def test_nearest_rank_median(self):
        self.assertEqual(derive.percentile([5, 1, 3], 50), 3)
        self.assertEqual(derive.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(derive.percentile([7], 50), 7)


class RatioMetricTest(unittest.TestCase):
    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(derive.ratio(5, 0), 0.0)
        self.assertEqual(derive.ratio(1, 4), 0.25)

    def test_end_to_end_of_one_rep(self):
        m = derive.rep_end_to_end(synthetic_rep())
        self.assertAlmostEqual(m["setup_s"], 0.0035)
        self.assertAlmostEqual(m["admitted_frac"], 0.75)
        self.assertEqual(m["job_p50_min"], 50.0)
        self.assertEqual(m["job_tail_min"], 90.0)  # p90 of 100 samples.
        self.assertEqual(m["decide_p50_ms"], 3.0)

    def test_end_to_end_takes_fastest_timing_and_median_otherwise(self):
        reps = [synthetic_rep(run_cpu_s=t, peak_rss_mb=t) for t in (3.0, 1.5, 2.0, 9.0, 2.5)]
        m = derive.end_to_end(reps)
        self.assertEqual(m["run_cpu_s"], 1.5)
        self.assertEqual(m["peak_rss_mb"], 2.5)
        self.assertEqual(set(m), set(derive.END_TO_END_UNITS))

    def test_per_layer_ratios(self):
        traced = synthetic_rep(
            traced=True, run_cpu_s=2.2, rate_changes=150, trace_events=99, trace_dropped=0,
            counters={
                "sim.flows_started": 100, "sim.component_solves": 40, "sim.events": 30,
                "controller.transfers_started": 100, "controller.transfers_cancelled": 5,
                "scheduler.candidate_pops": 600, "scheduler.blocks_selected": 300,
                "scheduler.cand_slots_reused": 30, "scheduler.cand_slots_repriced": 90,
                "fptas.solves": 4, "fptas.pushes": 800, "fptas.bound_skips": 200,
                "path_cache.hits": 99, "path_cache.misses": 1,
            },
            histograms={
                "controller.cycle": {"count": 20, "sum": 2000.0, "max": 200.0},
                "scheduler.schedule": {"count": 20, "sum": 100.0, "max": 9.0},
                "scheduler.route": {"count": 20, "sum": 300.0, "max": 30.0},
                "fptas.solve": {"count": 4, "sum": 250.0, "max": 80.0},
                "sim.component_flows": {"count": 40, "sum": 4000.0, "max": 250.0},
            })
        layers = derive.per_layer(traced, untraced_run_cpu_s=2.0)
        self.assertEqual(set(layers), set(derive.PER_LAYER_UNITS))
        self.assertAlmostEqual(layers["simulator.rate_changes_per_flow"], 1.5)
        self.assertAlmostEqual(layers["simulator.component_flows_mean"], 100.0)
        self.assertAlmostEqual(layers["control.cycle_busy_s"], 2.0)
        self.assertAlmostEqual(layers["control.cycle_self_s"], 1.6)
        self.assertAlmostEqual(layers["control.cancel_ratio"], 0.05)
        self.assertAlmostEqual(layers["control.degraded_cycle_frac"], 0.25)
        self.assertAlmostEqual(layers["scheduler.pops_per_selected"], 2.0)
        self.assertAlmostEqual(layers["scheduler.cand_reuse_ratio"], 0.25)
        self.assertAlmostEqual(layers["lp.pushes_per_solve"], 200.0)
        self.assertAlmostEqual(layers["lp.bound_skip_ratio"], 0.2)
        self.assertAlmostEqual(layers["topology.path_cache_hit_ratio"], 0.99)
        self.assertAlmostEqual(layers["unattributed_s"], 0.2)
        self.assertAlmostEqual(layers["telemetry.trace_overhead_ratio"], 1.1)
        self.assertEqual(layers["scheduler.admission_rejected"], 1)


class LayerShareTest(unittest.TestCase):
    def test_rows_and_remainder_add_up(self):
        rows = [("schedule", 0.25), ("route", 0.5), ("cycle self", 3.0)]
        table = derive.layer_shares(4.0, rows)
        self.assertEqual(table[-1][0], "unattributed")
        self.assertAlmostEqual(table[-1][1], 0.25)
        self.assertAlmostEqual(sum(seconds for _, seconds, _ in table), 4.0)
        self.assertAlmostEqual(sum(share for _, _, share in table), 1.0)
        self.assertAlmostEqual(table[1][2], 0.125)

    def test_overcounted_rows_give_negative_remainder(self):
        # Timers are wall-clock; when they exceed the CPU time the remainder
        # goes negative instead of silently clamping, so the sum still holds.
        table = derive.layer_shares(1.0, [("cycle", 1.1)])
        self.assertAlmostEqual(table[-1][1], -0.1)
        self.assertAlmostEqual(sum(seconds for _, seconds, _ in table), 1.0)


class CheckTest(unittest.TestCase):
    def test_clean_rep_passes(self):
        self.assertEqual(derive.check_rep(synthetic_rep()), [])

    def test_each_failure_is_caught(self):
        bad = {
            "stop_reason": "deadline",
            "pending_at_end": 3,
            "jobs_completed": 2,
            "jobs_regenerated": 5,
            "credited": 299,
            "redundant": 1,
            "max_link_overshoot": 1e-6,
            "job_minutes": [],
            "decide_ms": [],
        }
        for field, value in bad.items():
            with self.subTest(field=field):
                self.assertNotEqual(derive.check_rep(synthetic_rep(**{field: value})), [])

    def test_unknown_owed_set_is_bounded(self):
        rep = synthetic_rep(owed=-1, owed_upper=400, retired_blocks=200, credited=300)
        self.assertEqual(derive.check_rep(rep), [])
        self.assertNotEqual(derive.check_rep(dict(rep, credited=401)), [])
        self.assertNotEqual(derive.check_rep(dict(rep, credited=199)), [])

    def test_traced_rep_must_drop_nothing(self):
        rep = synthetic_rep(traced=True, trace_dropped=1)
        self.assertNotEqual(derive.check_rep(rep), [])

    def test_fingerprints_must_agree(self):
        a = synthetic_rep()
        self.assertEqual(derive.check_run([a, dict(a)]), [])
        self.assertNotEqual(derive.check_run([a, dict(a, fingerprint="bb")]), [])

    def test_too_few_job_samples_fail(self):
        self.assertNotEqual(derive.check_rep(synthetic_rep(job_minutes=[1.0] * 19)), [])
        self.assertEqual(derive.check_rep(synthetic_rep(job_minutes=[1.0] * 20)), [])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric_with_its_unit(self):
        contract = json.loads((Path(__file__).resolve().parent.parent /
                               "BENCHMARK.json").read_text())
        for section, units in (("end_to_end", derive.END_TO_END_UNITS),
                               ("per_layer", derive.PER_LAYER_UNITS)):
            with self.subTest(section=section):
                declared = {m["name"]: m["unit"] for m in contract[section]}
                self.assertEqual(declared, units)


if __name__ == "__main__":
    unittest.main()
