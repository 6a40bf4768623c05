// Steady-state service-mode soak (ctest label: steady).
//
// Drives BdsService::RunSteadyState through the scenarios the overload PR
// promises:
//   * a one-simulated-day open-loop soak at ~1.5x the overload knee that
//     must finish with bounded memory, an engaged degradation ladder,
//     admission rejections, and zero capacity-invariant violations;
//   * bit-identical fingerprints and ladder-transition logs across
//     {1,4} threads x {1,4} shards;
//   * a chaos schedule with controller-replica fail/recover events, so the
//     soak exercises ControllerReplicaSet failover end to end.
//
// Scale note: WAN capacity, job sizes (size_scale), and the stressed cost
// model are tuned so the laptop-scale run crosses the cycle budget the same
// way the fleet-scale controller would — the ladder dynamics are what is
// under test, not absolute throughput.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/service.h"
#include "src/fault/fault_injector.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

BdsOptions ServiceOptions(int num_threads = 1, int num_shards = 1) {
  BdsOptions o;
  o.block_size = MB(2.0);
  o.cycle_length = 3.0;
  o.validate_invariants = true;
  o.num_threads = num_threads;
  o.num_shards = num_shards;
  o.seed = 7;
  return o;
}

Topology SoakTopology() {
  // 4 DCs x 1 server, deliberately thin WAN pipes so the overload knee sits
  // at a laptop-friendly arrival rate.
  return BuildFullMesh(/*num_dcs=*/4, /*servers_per_dc=*/1, /*wan_capacity=*/MBps(1.0),
                       /*server_up=*/MBps(4.0), /*server_down=*/MBps(4.0))
      .value();
}

SteadyStateOptions SoakOptions(SimTime duration) {
  SteadyStateOptions o;
  o.duration = duration;
  o.drain = true;
  o.drain_limit = Hours(1.0);

  // ~1.5x the knee: the thin mesh drains roughly a dozen deliveries per
  // cycle, jobs average a handful of (block, DC) deliveries each.
  o.arrivals.pattern = ArrivalPattern::kBursty;
  o.arrivals.jobs_per_hour = 1800.0;
  o.arrivals.burst_factor = 4.0;
  o.arrivals.burst_fraction = 0.2;
  o.arrivals.mean_burst_seconds = 600.0;
  o.arrivals.size_scale = 2e-6;  // TB-scale trace sizes -> MB-scale jobs.
  o.arrivals.seed = 99;

  o.admission.enabled = true;
  o.admission.policy = AdmissionPolicy::kReject;
  o.admission.max_backlog_cycles = 30.0;
  o.admission.bootstrap_cycles = 8;

  // Stressed cost model: the admission-capped backlog (a few hundred owed
  // deliveries) prices past the 3 s cycle budget, so the ladder engages at
  // this scale exactly like the fleet point would.
  o.overload.enabled = true;
  o.overload.cost.base_seconds = 1e-4;
  o.overload.cost.per_pending_seconds = 1.2e-2;
  o.overload.recover_cycles = 5;

  o.retire_completed = true;
  o.max_cycle_stats = 2048;
  return o;
}

TEST(SteadyStateSoakTest, DayLongOverloadSoakIsBoundedAndDegradesGracefully) {
  auto service = BdsService::Create(SoakTopology(), ServiceOptions()).value();
  auto report = service->RunSteadyState(SoakOptions(/*duration=*/86400.0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const SteadyStateReport& r = *report;
  SCOPED_TRACE(r.ToString());

  // The run must end for a reason the service mode recognizes — never the
  // hard cycle-cap abort.
  EXPECT_TRUE(r.run.stop_reason == StopReason::kDrained ||
              r.run.stop_reason == StopReason::kDeadline);

  // Open-loop offered load well past what was served; admission pushed back.
  EXPECT_GT(r.jobs_generated, 10'000);
  EXPECT_EQ(r.admission.offered, r.jobs_generated);
  EXPECT_GT(r.admission.rejected, 0);
  EXPECT_EQ(r.admission.accepted + r.admission.rejected, r.admission.offered);
  EXPECT_GT(r.estimated_service_rate, 0.0);

  // Plenty of work still completed, with sane percentiles.
  EXPECT_GT(r.jobs_completed, 1'000);
  EXPECT_GT(r.completion_p50_minutes, 0.0);
  EXPECT_LE(r.completion_p50_minutes, r.completion_p95_minutes);
  EXPECT_LE(r.completion_p95_minutes, r.completion_p99_minutes);
  EXPECT_LE(r.completion_p99_minutes, r.completion_max_minutes);

  // The ladder engaged: cycles overran and at least two degraded rungs saw
  // real occupancy.
  EXPECT_GT(r.cycle_overruns, 0);
  int degraded_rungs = 0;
  for (size_t rung = 1; rung < r.rung_cycles.size(); ++rung) {
    if (r.rung_cycles[rung] > 0) {
      ++degraded_rungs;
    }
  }
  EXPECT_GE(degraded_rungs, 2);
  EXPECT_FALSE(r.transitions.empty());

  // Hard invariant: no link ever exceeded its usable capacity.
  ASSERT_TRUE(r.run.max_link_overshoot.has_value());
  EXPECT_LE(*r.run.max_link_overshoot, 1e-4);

  // Bounded memory: nearly everything completed was retired, the live
  // residue is admission-bounded, and per-cycle history was capped even
  // though the full-run counters kept counting.
  EXPECT_GT(r.run.retired_jobs, r.jobs_completed * 9 / 10);
  EXPECT_LE(r.live_pending_at_end, r.run.peak_live_pending);
  EXPECT_LT(r.run.peak_live_jobs, r.admission.accepted);
  EXPECT_LE(static_cast<int64_t>(r.run.cycles.size()), 2048 + 2048 / 2 + 64);
  EXPECT_GT(r.run.total_cycles, static_cast<int64_t>(r.run.cycles.size()));
  EXPECT_GT(r.run.total_cycles, 20'000);  // ~a day of 3 s cycles.

  EXPECT_FALSE(r.ToString().empty());
}

TEST(SteadyStateSoakTest, FingerprintAndLadderIdenticalAcrossThreadsAndShards) {
  struct Outcome {
    uint64_t fingerprint;
    uint64_t transition_digest;
    std::vector<RungTransition> transitions;
    int64_t rejected;
  };
  std::vector<Outcome> outcomes;
  for (auto [threads, shards] :
       std::vector<std::pair<int, int>>{{1, 1}, {4, 1}, {1, 4}, {4, 4}}) {
    auto service = BdsService::Create(SoakTopology(), ServiceOptions(threads, shards)).value();
    auto report = service->RunSteadyState(SoakOptions(/*duration=*/7200.0));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    outcomes.push_back(Outcome{report->Fingerprint(), report->transition_digest,
                               report->transitions, report->admission.rejected});
  }
  // The two-hour window must actually exercise the ladder, or the parity
  // check proves nothing.
  EXPECT_FALSE(outcomes[0].transitions.empty());
  for (size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].fingerprint, outcomes[0].fingerprint) << "config " << i;
    EXPECT_EQ(outcomes[i].transition_digest, outcomes[0].transition_digest) << "config " << i;
    EXPECT_EQ(outcomes[i].transitions, outcomes[0].transitions) << "config " << i;
    EXPECT_EQ(outcomes[i].rejected, outcomes[0].rejected) << "config " << i;
  }
}

TEST(SteadyStateSoakTest, BurnRateAlertsFireUnderOverloadOnly) {
  // The SLO time-series acceptance pair: the ~1.5x-knee overload rig must
  // surface at least one burn-rate alert in the report (completions blow the
  // 30-minute SLO wholesale once the backlog saturates), while a comfortably
  // underloaded run with the same sampler must stay quiet.
  auto run = [](bool overloaded) {
    auto service = BdsService::Create(SoakTopology(), ServiceOptions()).value();
    SteadyStateOptions steady = SoakOptions(/*duration=*/6.0 * 3600.0);
    if (!overloaded) {
      steady.arrivals.pattern = ArrivalPattern::kPoisson;
      steady.arrivals.jobs_per_hour = 240.0;
      steady.overload.enabled = false;
    }
    steady.timeseries.enabled = true;
    steady.timeseries.sample_dt = 60.0;
    auto report = service->RunSteadyState(steady);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : SteadyStateReport{};
  };

  SteadyStateReport hot = run(/*overloaded=*/true);
  SCOPED_TRACE(hot.ToString());
  EXPECT_GT(hot.timeseries_samples, 0);
  ASSERT_GE(hot.slo_alerts.size(), 1u);
  EXPECT_GT(hot.slo_alerts[0].burn_fast, 2.0);
  EXPECT_GT(hot.slo_alerts[0].burn_slow, 2.0);

  SteadyStateReport calm = run(/*overloaded=*/false);
  SCOPED_TRACE(calm.ToString());
  EXPECT_GT(calm.timeseries_samples, 0);
  EXPECT_EQ(calm.slo_alerts.size(), 0u);
  EXPECT_EQ(calm.burn_fast_at_end, 0.0);
}

TEST(SteadyStateSoakTest, ChaosReplicaFailoverSoakCompletes) {
  // Draw a chaos plan that definitely contains controller-replica
  // fail/recover events (probing seeds against a scratch injector leaves the
  // service untouched), install it, and run a steady-state window through
  // the failovers.
  ChaosOptions chaos;
  chaos.horizon = 1200.0;
  chaos.max_link_downs = 0;
  chaos.max_link_degradations = 0;
  chaos.max_link_flaps = 0;
  chaos.report_loss_prob_max = 0.0;
  chaos.push_drop_prob_max = 0.0;
  chaos.corruption_prob_max = 0.0;
  chaos.include_controller_outage = false;
  chaos.max_replica_failures = 3;
  chaos.controller_replicas = 3;

  Topology probe_topo = SoakTopology();
  uint64_t chosen_seed = 0;
  bool found = false;
  for (uint64_t seed = 1; seed <= 32 && !found; ++seed) {
    FaultInjector scratch;
    auto plan = InstallRandomChaos(probe_topo, seed, chaos, &scratch);
    ASSERT_TRUE(plan.ok());
    if (!plan->replica_failures.empty()) {
      chosen_seed = seed;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in [1,32] drew a replica failure";

  BdsOptions options = ServiceOptions();
  options.controller_replicas = 3;
  auto service = BdsService::Create(SoakTopology(), options).value();
  auto plan = service->InstallChaos(chosen_seed, chaos);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->replica_failures.empty());

  SteadyStateOptions steady = SoakOptions(/*duration=*/1800.0);
  // Light load: this test is about failover liveness, not the ladder.
  steady.arrivals.pattern = ArrivalPattern::kPoisson;
  steady.arrivals.jobs_per_hour = 240.0;
  steady.overload.enabled = false;
  auto report = service->RunSteadyState(steady);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  SCOPED_TRACE(report->ToString());
  EXPECT_TRUE(report->run.stop_reason == StopReason::kDrained ||
              report->run.stop_reason == StopReason::kDeadline);
  EXPECT_GT(report->jobs_completed, 0);
  ASSERT_TRUE(report->run.max_link_overshoot.has_value());
  EXPECT_LE(*report->run.max_link_overshoot, 1e-4);
}

}  // namespace
}  // namespace bds
