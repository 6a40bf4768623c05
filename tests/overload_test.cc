// Unit and regression tests for the overload-protection pieces of the
// long-running service mode: the cycle-deadline watchdog and its degradation
// ladder (src/control/overload.h), the admission controller
// (src/scheduler/admission.h), bounded-memory retirement in ReplicaState,
// and the StopReason the controller now reports — including the wedge
// detector in both directions (fires on a provably dead run, defers while a
// scheduled recovery can still unwedge it).

#include <gtest/gtest.h>

#include "src/control/controller.h"
#include "src/control/overload.h"
#include "src/core/service.h"
#include "src/scheduler/admission.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

// --------------------------------------------------------------------------
// CycleCostModel.

TEST(CycleCostModelTest, MonotoneInEveryCount) {
  CycleCostModel m;
  const double base = m.Cost(0, 0, 0, 1, 0.1);
  EXPECT_DOUBLE_EQ(base, m.base_seconds);
  EXPECT_GT(m.Cost(1000, 0, 0, 1, 0.1), base);
  EXPECT_GT(m.Cost(0, 1000, 0, 1, 0.1), base);
  EXPECT_GT(m.Cost(0, 0, 1000, 1, 0.1), base);
  // More routes per subtask costs more; a coarser epsilon costs less.
  EXPECT_GT(m.Cost(0, 0, 100, 3, 0.1), m.Cost(0, 0, 100, 1, 0.1));
  EXPECT_LT(m.Cost(0, 0, 100, 3, 0.4), m.Cost(0, 0, 100, 3, 0.1));
}

TEST(CycleCostModelTest, CalibrationAnchorPricesNearMeasuredCycle) {
  // The PR-6 fleet point (1e7 pending, ~3e4 selected, ~2.7e4 subtasks,
  // 3 routes, eps 0.1) should price near the measured ~2.2 s all-on cycle.
  CycleCostModel m;
  const double cost = m.Cost(10'000'000, 30'000, 27'000, 3, 0.1);
  EXPECT_GT(cost, 1.5);
  EXPECT_LT(cost, 3.0);
}

OverloadOptions WatchdogOptions() {
  OverloadOptions o;
  o.enabled = true;
  o.recover_cycles = 2;
  return o;
}

// A 1 s cycle: overrun above 1.0 s of cost, calm below 0.5 s.
ControllerAlgorithmOptions WatchdogAlgorithm() {
  ControllerAlgorithmOptions a;
  a.cycle_length = 1.0;
  return a;
}

// --------------------------------------------------------------------------
// CycleWatchdog ladder dynamics.

TEST(CycleWatchdogTest, EscalatesOneRungPerOverrunAndSaturates) {
  CycleWatchdog wd(WatchdogOptions(), WatchdogAlgorithm());
  EXPECT_EQ(wd.rung(), DegradationRung::kNormal);
  EXPECT_EQ(wd.Observe(0, 2.0), DegradationRung::kFirstRouteOnly);
  EXPECT_EQ(wd.Observe(1, 2.0), DegradationRung::kCoarseEpsilon);
  EXPECT_EQ(wd.Observe(2, 2.0), DegradationRung::kShedCandidates);
  EXPECT_EQ(wd.Observe(3, 2.0), DegradationRung::kExtendDecisions);
  // Already at the bottom: keeps counting overruns, cannot go lower.
  EXPECT_EQ(wd.Observe(4, 2.0), DegradationRung::kExtendDecisions);
  EXPECT_EQ(wd.overrun_cycles(), 5);
  EXPECT_DOUBLE_EQ(wd.worst_overrun_seconds(), 1.0);
  EXPECT_EQ(wd.transitions().size(), 4u);  // No transition once saturated.
}

TEST(CycleWatchdogTest, RecoversAfterConsecutiveCalmCycles) {
  CycleWatchdog wd(WatchdogOptions(), WatchdogAlgorithm());
  wd.Observe(0, 2.0);  // -> kFirstRouteOnly
  EXPECT_EQ(wd.Observe(1, 0.1), DegradationRung::kFirstRouteOnly);  // calm 1 of 2
  EXPECT_EQ(wd.Observe(2, 0.1), DegradationRung::kNormal);          // calm 2 of 2
  ASSERT_EQ(wd.transitions().size(), 2u);
  EXPECT_EQ(wd.transitions()[1].from, DegradationRung::kFirstRouteOnly);
  EXPECT_EQ(wd.transitions()[1].to, DegradationRung::kNormal);
}

TEST(CycleWatchdogTest, MiddlingCycleResetsCalmStreak) {
  CycleWatchdog wd(WatchdogOptions(), WatchdogAlgorithm());
  wd.Observe(0, 2.0);  // -> kFirstRouteOnly
  wd.Observe(1, 0.1);  // calm 1 of 2
  // 0.7 is neither an overrun (> 1.0) nor calm (< 0.5): hold and reset.
  EXPECT_EQ(wd.Observe(2, 0.7), DegradationRung::kFirstRouteOnly);
  EXPECT_EQ(wd.Observe(3, 0.1), DegradationRung::kFirstRouteOnly);  // calm 1 of 2 again
  EXPECT_EQ(wd.Observe(4, 0.1), DegradationRung::kNormal);
  EXPECT_EQ(wd.overrun_cycles(), 1);
}

TEST(CycleWatchdogTest, RungOccupancyCoversEveryObservedCycle) {
  CycleWatchdog wd(WatchdogOptions(), WatchdogAlgorithm());
  for (int64_t c = 0; c < 10; ++c) {
    wd.Observe(c, c < 3 ? 2.0 : 0.1);
  }
  int64_t total = 0;
  for (int64_t n : wd.rung_cycles()) {
    total += n;
  }
  EXPECT_EQ(total, 10);
  EXPECT_GT(wd.rung_cycles()[static_cast<size_t>(DegradationRung::kFirstRouteOnly)], 0);
}

TEST(CycleWatchdogTest, StalenessZeroUnderBudgetAndCapped) {
  CycleWatchdog wd(WatchdogOptions(), WatchdogAlgorithm());
  EXPECT_DOUBLE_EQ(wd.StalenessFor(0.5), 0.0);
  EXPECT_DOUBLE_EQ(wd.StalenessFor(1.0), 0.0);
  EXPECT_DOUBLE_EQ(wd.StalenessFor(1.4), 0.4);
  EXPECT_DOUBLE_EQ(wd.StalenessFor(100.0), 0.9);  // Capped at fraction * cycle.
}

TEST(CycleWatchdogTest, ModelCostReflectsRungKnobs) {
  const OverloadOptions o = WatchdogOptions();
  ControllerAlgorithmOptions a = WatchdogAlgorithm();
  a.max_wan_routes = 3;
  a.fptas_epsilon = 0.1;
  CycleWatchdog wd(o, a);
  const double normal = wd.ModelCost(1000, 100, 90);
  wd.Observe(0, 2.0);  // -> kFirstRouteOnly: one route instead of three.
  const double first_route = wd.ModelCost(1000, 100, 90);
  EXPECT_LT(first_route, normal);
  wd.Observe(1, 2.0);  // -> kCoarseEpsilon: fewer FPTAS phases on top.
  const double coarse = wd.ModelCost(1000, 100, 90);
  EXPECT_LT(coarse, first_route);
  wd.Observe(2, 2.0);  // -> kShedCandidates
  wd.Observe(3, 2.0);  // -> kExtendDecisions: base cost only.
  EXPECT_DOUBLE_EQ(wd.ModelCost(1000, 100, 90), o.cost.base_seconds);
}

TEST(DegradationRungTest, KnobsForRungTable) {
  ControllerAlgorithmOptions a;
  a.max_wan_routes = 3;
  a.fptas_epsilon = 0.2;
  struct Row {
    DegradationRung rung;
    const char* name;
    int route_cap;
    double epsilon;
    int64_t max_deliveries;
    bool skip;
  };
  const Row rows[] = {
      {DegradationRung::kNormal, "normal", 3, 0.2, 0, false},
      {DegradationRung::kFirstRouteOnly, "first_route_only", 1, 0.2, 0, false},
      // 4 x 0.2 = 0.8, capped at 0.5.
      {DegradationRung::kCoarseEpsilon, "coarse_epsilon", 1, 0.5, 0, false},
      {DegradationRung::kShedCandidates, "shed_candidates", 1, 0.5, 4096, false},
      {DegradationRung::kExtendDecisions, "extend_decisions", 1, 0.5, 4096, true},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    EXPECT_STREQ(DegradationRungName(row.rung), row.name);
    const RungKnobs k = KnobsForRung(row.rung, a);
    EXPECT_EQ(k.route_cap, row.route_cap);
    EXPECT_DOUBLE_EQ(k.fptas_epsilon, row.epsilon);
    EXPECT_EQ(k.max_deliveries, row.max_deliveries);
    EXPECT_EQ(k.skip_decisions, row.skip);
  }
  a.fptas_epsilon = 0.1;  // 4 x 0.1 stays under the cap.
  EXPECT_DOUBLE_EQ(KnobsForRung(DegradationRung::kCoarseEpsilon, a).fptas_epsilon, 0.4);
}

TEST(CycleWatchdogTest, TransitionDigestIsDeterministicAndOrderSensitive) {
  CycleWatchdog a(WatchdogOptions(), WatchdogAlgorithm());
  CycleWatchdog b(WatchdogOptions(), WatchdogAlgorithm());
  for (int64_t c = 0; c < 8; ++c) {
    a.Observe(c, c % 3 == 0 ? 2.0 : 0.1);
    b.Observe(c, c % 3 == 0 ? 2.0 : 0.1);
  }
  EXPECT_EQ(a.TransitionDigest(), b.TransitionDigest());
  CycleWatchdog c(WatchdogOptions(), WatchdogAlgorithm());
  for (int64_t i = 0; i < 8; ++i) {
    c.Observe(i, i % 2 == 0 ? 2.0 : 0.1);
  }
  EXPECT_NE(a.TransitionDigest(), c.TransitionDigest());
}

// --------------------------------------------------------------------------
// AdmissionController.

AdmissionOptions AdmissionDefaults() {
  AdmissionOptions o;
  o.enabled = true;
  o.max_backlog_cycles = 3.0;
  o.bootstrap_cycles = 0;
  return o;
}

TEST(AdmissionControllerTest, AcceptsUnderAndRejectsOverBacklogBudget) {
  AdmissionController ac(AdmissionDefaults());
  ac.ObserveCycle(10, /*had_backlog=*/true);  // First sample sets the rate.
  EXPECT_DOUBLE_EQ(ac.estimated_service_rate(), 10.0);
  // (10 + 10) / 10 = 2 cycles <= 3: accept.
  EXPECT_EQ(ac.Admit(10, 10), AdmissionDecision::kAccept);
  // (25 + 10) / 10 = 3.5 cycles > 3: reject.
  EXPECT_EQ(ac.Admit(10, 25), AdmissionDecision::kReject);
  EXPECT_EQ(ac.stats().offered, 2);
  EXPECT_EQ(ac.stats().accepted, 1);
  EXPECT_EQ(ac.stats().rejected, 1);
}

TEST(AdmissionControllerTest, BootstrapIsOptimisticExceptAbsoluteBound) {
  AdmissionOptions o = AdmissionDefaults();
  o.bootstrap_cycles = 8;
  o.max_backlog_deliveries = 50;
  AdmissionController ac(o);
  // No rate estimate yet: any relative backlog is fine...
  EXPECT_EQ(ac.Admit(10, 30), AdmissionDecision::kAccept);
  // ...but the absolute bound still holds.
  EXPECT_EQ(ac.Admit(10, 45), AdmissionDecision::kReject);
}

TEST(AdmissionControllerTest, FormedZeroRateRejectsEverything) {
  AdmissionController ac(AdmissionDefaults());
  ac.ObserveCycle(0, /*had_backlog=*/true);  // Backlogged cycle drained nothing.
  EXPECT_EQ(ac.Admit(1, 0), AdmissionDecision::kReject);
}

TEST(AdmissionControllerTest, IdleCyclesDoNotDragTheRateDown) {
  AdmissionController ac(AdmissionDefaults());
  ac.ObserveCycle(10, /*had_backlog=*/true);
  ac.ObserveCycle(0, /*had_backlog=*/false);  // Nothing owed: skipped.
  EXPECT_DOUBLE_EQ(ac.estimated_service_rate(), 10.0);
  ac.ObserveCycle(0, /*had_backlog=*/true);  // Owed but drained nothing: counts.
  EXPECT_LT(ac.estimated_service_rate(), 10.0);
}

TEST(AdmissionControllerTest, DeferPolicyLeavesCountingToTheCaller) {
  AdmissionOptions o = AdmissionDefaults();
  o.policy = AdmissionPolicy::kDefer;
  AdmissionController ac(o);
  ac.ObserveCycle(10, /*had_backlog=*/true);
  EXPECT_EQ(ac.Admit(10, 100), AdmissionDecision::kDefer);
  EXPECT_EQ(ac.stats().offered, 1);
  EXPECT_EQ(ac.stats().deferred, 0);  // Caller decides queue vs overflow.
  ac.CountDeferred();
  EXPECT_EQ(ac.stats().deferred, 1);
  // Re-offers do not inflate the offered count.
  EXPECT_EQ(ac.ReofferDeferred(10, 100), AdmissionDecision::kDefer);
  EXPECT_EQ(ac.ReofferDeferred(10, 5), AdmissionDecision::kAccept);
  EXPECT_EQ(ac.stats().offered, 1);
}

TEST(AdmissionControllerTest, DisabledAcceptsEverything) {
  AdmissionController ac;  // Default options: disabled.
  ac.ObserveCycle(1, /*had_backlog=*/true);
  EXPECT_EQ(ac.Admit(1'000'000, 1'000'000), AdmissionDecision::kAccept);
}

// --------------------------------------------------------------------------
// StopReason + wedge watchdog, end to end through the controller.

struct Fixture {
  Topology topo;
  WanRoutingTable routing;

  explicit Fixture(int dcs = 2, int servers = 1, Rate nic = MBps(20.0), Rate wan = MBps(20.0))
      : topo(BuildFullMesh(dcs, servers, wan, nic, nic).value()),
        routing(WanRoutingTable::Build(topo, 3).value()) {}
};

ControllerOptions Defaults() {
  BdsOptions options;
  options.cycle_length = 1.0;
  return ToControllerOptions(options);
}

TEST(StopReasonTest, NamesAreStable) {
  EXPECT_STREQ(StopReasonName(StopReason::kDrained), "drained");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(StopReasonName(StopReason::kWedged), "wedged");
  EXPECT_STREQ(StopReasonName(StopReason::kAborted), "aborted");
}

TEST(StopReasonTest, DrainedRunReportsDrained) {
  Fixture f;
  BdsController controller(&f.topo, &f.routing, Defaults());
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1}, MB(8.0)).value()).ok());
  auto report = controller.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->stop_reason, StopReason::kDrained);
  EXPECT_EQ(report->jobs_completed_total, 1);
}

TEST(StopReasonTest, DeadlineRunReportsDeadline) {
  Fixture f(/*dcs=*/2, /*servers=*/1, /*nic=*/MBps(1.0), /*wan=*/MBps(1.0));
  BdsController controller(&f.topo, &f.routing, Defaults());
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1}, MB(500.0)).value()).ok());
  auto report = controller.Run(/*deadline=*/5.0);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->completed);
  EXPECT_EQ(report->stop_reason, StopReason::kDeadline);
}

TEST(WedgeWatchdogTest, PermanentSourceFailureStopsAsWedged) {
  // 2 DCs x 1 server: once the only source server fails, no holder of any
  // block remains and the run can never make progress. The watchdog must
  // stop it as kWedged well before the deadline instead of spinning.
  Fixture f;
  BdsController controller(&f.topo, &f.routing, Defaults());
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1}, MB(8.0)).value()).ok());
  ServerId source = f.topo.dc(0).servers.front();
  ASSERT_TRUE(controller.mutable_script()->ScheduleServerFailure(source, 0.0).ok());
  auto report = controller.Run(/*deadline=*/10'000.0);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->completed);
  EXPECT_EQ(report->stop_reason, StopReason::kWedged);
  EXPECT_LT(report->total_cycles, 100);  // Stopped early, not at the deadline.
}

TEST(WedgeWatchdogTest, PendingLinkRecoveryDefersTheWedgeVerdict) {
  // The only WAN path is down from t=0 to t=30. Cycles in that window look
  // exactly like a wedge (no flows, no transfers), but the scheduled
  // recovery means the run is NOT dead — the detector must hold off, and the
  // job must complete after the link returns.
  Fixture f;
  BdsController controller(&f.topo, &f.routing, Defaults());
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1}, MB(8.0)).value()).ok());
  LinkId wan_link = -1;
  for (const Link& l : f.topo.links()) {
    if (l.type == LinkType::kWan) {
      wan_link = l.id;
      break;
    }
  }
  ASSERT_GE(wan_link, 0);
  ASSERT_TRUE(
      controller.mutable_fault_injector()->AddLinkDown(f.topo, wan_link, 0.0, 30.0).ok());
  auto report = controller.Run(/*deadline=*/10'000.0);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->stop_reason, StopReason::kDrained);
  EXPECT_GT(report->completion_time, 30.0);  // Finished only after recovery.
}

TEST(WedgeWatchdogTest, DegradedRungDefersTheWedgeVerdict) {
  // Make every backlogged cycle overrun, so the ladder walks all the way to
  // kExtendDecisions while the job is still in flight: extended cycles start
  // no transfers, which must not read as a wedge while the rung is above
  // kNormal. The run still finishes (recovery hysteresis re-enables
  // scheduling), exercising the extend <-> shed oscillation on the way.
  Fixture f(/*dcs=*/2, /*servers=*/1, /*nic=*/MBps(2.0), /*wan=*/MBps(2.0));
  BdsController controller(&f.topo, &f.routing, Defaults());
  ASSERT_TRUE(controller.SubmitJob(MakeJob(0, 0, {1}, MB(24.0)).value()).ok());
  OverloadOptions overload;
  overload.enabled = true;
  overload.cost.base_seconds = 1e-4;
  overload.cost.per_pending_seconds = 10.0;  // Any pending work overruns.
  overload.recover_cycles = 3;
  controller.ConfigureOverload(overload);
  auto report = controller.Run(/*deadline=*/10'000.0);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->stop_reason, StopReason::kDrained);
  const auto& rungs = controller.watchdog().rung_cycles();
  EXPECT_GT(rungs[static_cast<size_t>(DegradationRung::kExtendDecisions)], 0);
}

TEST(CycleWatchdogTest, ControllerPricesTheKnobsItRuns) {
  // The watchdog must price the route count and epsilon the algorithm is
  // configured with, not defaults of its own.
  Fixture f(/*dcs=*/4, /*servers=*/2);
  ControllerOptions options = Defaults();
  options.algorithm.max_wan_routes = 2;
  options.algorithm.fptas_epsilon = 0.05;
  BdsController controller(&f.topo, &f.routing, options);
  const MulticastJob job = MakeJob(0, 0, {1, 2, 3}, MB(16.0)).value();
  ASSERT_TRUE(controller.SubmitJob(job).ok());
  OverloadOptions overload;
  overload.enabled = true;
  controller.ConfigureOverload(overload);
  auto report = controller.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->cycles.empty());
  const CycleStats& first = report->cycles.front();
  ASSERT_EQ(first.cycle, 0);
  ASSERT_EQ(first.rung, static_cast<int>(DegradationRung::kNormal));
  ASSERT_GT(first.merged_subtasks, 0);
  const int64_t pending = job.num_blocks() * 3;
  EXPECT_EQ(first.modeled_cost_seconds,
            CycleCostModel{}.Cost(pending, first.scheduled_blocks, first.merged_subtasks,
                                  /*routes_per_subtask=*/2, /*epsilon=*/0.05));
}

// --------------------------------------------------------------------------
// Bounded-memory retirement through ReplicaState.

TEST(RetirementTest, RetirementKeepsFullRunDigestsAndIsReproducible) {
  // Same workload with and without retirement: the incrementally-maintained
  // digests and full-run totals must agree even though the retained
  // history (cycles vector, job_completion map) differs. The fingerprint
  // itself deliberately covers the retained state too, so it is only
  // compared between *same-config* runs.
  auto run = [](bool retire) {
    Fixture f(/*dcs=*/3, /*servers=*/2);
    BdsController controller(&f.topo, &f.routing, Defaults());
    for (int j = 0; j < 6; ++j) {
      BDS_CHECK(controller
                    .SubmitJob(MakeJob(j, 0, {1, 2}, MB(6.0), MB(2.0), j * 2.0).value())
                    .ok());
    }
    if (retire) {
      controller.ConfigureRetirement(true, /*max_cycle_stats=*/4);
    }
    auto report = controller.Run();
    BDS_CHECK(report.ok());
    return std::make_pair(report->Fingerprint(), *report);
  };
  auto [fp_keep, keep] = run(false);
  auto [fp_retire, retire] = run(true);
  auto [fp_retire2, retire2] = run(true);
  (void)retire2;
  EXPECT_EQ(fp_retire, fp_retire2);  // Same config reproduces bit-identically.
  EXPECT_NE(fp_keep, 0u);
  EXPECT_EQ(keep.jobs_completed_total, 6);
  EXPECT_EQ(retire.jobs_completed_total, 6);
  EXPECT_EQ(retire.retired_jobs, 6);
  EXPECT_EQ(keep.retired_jobs, 0);
  // Retained per-cycle history is trimmed, but the full-run counters are not.
  EXPECT_EQ(keep.total_cycles, retire.total_cycles);
  EXPECT_LE(static_cast<int64_t>(retire.cycles.size()), 4 + 4 / 2);
  EXPECT_EQ(keep.cycles_digest, retire.cycles_digest);
  EXPECT_EQ(keep.completion_digest, retire.completion_digest);
  // Retired jobs leave job_completion; totals still count them.
  EXPECT_EQ(retire.job_completion.size(), 0u);
  EXPECT_EQ(keep.job_completion.size(), 6u);
}

}  // namespace
}  // namespace bds
