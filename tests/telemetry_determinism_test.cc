// The telemetry determinism contract: enabling metrics and tracing must
// never change what the simulation computes. Two runs with the same seed —
// one with telemetry fully off, one with the recorder active — must produce
// bitwise-equal RunReport fingerprints, with faults injected so every
// instrumented subsystem (controller, scheduler, FPTAS, path cache,
// simulator, fault injector) actually executes its telemetry branches.

#include <gtest/gtest.h>

#include <string>

#include "src/core/service.h"
#include "src/simulator/network_simulator.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

constexpr Bytes kJobBytes = MB(60.0);

struct RunResult {
  uint64_t fingerprint = 0;
  bool completed = false;
  int64_t credited = 0;
  telemetry::MetricsSnapshot telemetry;
};

RunResult RunOnce(uint64_t seed, bool with_telemetry) {
  if (with_telemetry) {
    telemetry::MetricsRegistry::Global().Reset();
    telemetry::TraceRecorder::Global().Start();
  } else {
    telemetry::TraceRecorder::Global().Stop();
    telemetry::SetEnabled(false);
  }

  BdsOptions options;
  options.cycle_length = 1.0;
  options.validate_invariants = true;
  options.seed = seed;
  Topology topo = BuildFullMesh(3, 2, Gbps(1.0), MBps(50.0), MBps(50.0)).value();
  auto service = BdsService::Create(std::move(topo), options).value();
  EXPECT_TRUE(service->CreateJob(0, {1, 2}, kJobBytes).ok());
  EXPECT_TRUE(service->InstallChaos(seed).ok());

  RunResult out;
  auto report = service->Run(/*deadline=*/Hours(2.0));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    out.fingerprint = report->Fingerprint();
    out.completed = report->completed;
    out.credited = service->mutable_controller()->state().total_credited();
    out.telemetry = report->telemetry;
  }

  telemetry::TraceRecorder::Global().Stop();
  telemetry::SetEnabled(false);
  return out;
}

TEST(TelemetryDeterminismTest, FingerprintIdenticalWithTracingOffAndOn) {
  for (uint64_t seed : {2ULL, 7ULL, 13ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunResult off = RunOnce(seed, /*with_telemetry=*/false);
    RunResult on = RunOnce(seed, /*with_telemetry=*/true);
    EXPECT_TRUE(off.completed);
    EXPECT_TRUE(on.completed);
    EXPECT_EQ(off.fingerprint, on.fingerprint);
    EXPECT_EQ(off.credited, on.credited);
    // The off run must not have accumulated metrics; the on run must have.
    EXPECT_TRUE(off.telemetry.empty());
    EXPECT_FALSE(on.telemetry.empty());
  }
}

TEST(TelemetryDeterminismTest, InstrumentedSubsystemsAllReport) {
  RunResult on = RunOnce(/*seed=*/7, /*with_telemetry=*/true);
  ASSERT_TRUE(on.completed);
  const telemetry::MetricsSnapshot& snap = on.telemetry;
  // One representative counter per instrumented layer. Chaos seeds always
  // schedule and route, so these must be strictly positive.
  EXPECT_GT(snap.CounterValue("controller.cycles"), 0);
  EXPECT_GT(snap.CounterValue("controller.blocks_scheduled"), 0);
  EXPECT_GT(snap.CounterValue("scheduler.candidate_pops"), 0);
  EXPECT_GT(snap.CounterValue("fptas.solves"), 0);
  EXPECT_GT(snap.CounterValue("sim.flows_started"), 0);
  EXPECT_GT(snap.CounterValue("sim.flows_completed"), 0);
  // Stragglers: launched transfers planned to outlast their cycle.
  EXPECT_GT(snap.CounterValue("controller.transfers_planned_past_cycle"), 0);
  EXPECT_LE(snap.CounterValue("controller.transfers_planned_past_cycle"),
            snap.CounterValue("controller.transfers_started"));
  const auto* cycle_timer = snap.FindHistogram("controller.cycle");
  ASSERT_NE(cycle_timer, nullptr);
  EXPECT_GT(cycle_timer->hist.total(), 0);
  const auto* solve_timer = snap.FindHistogram("fptas.solve");
  ASSERT_NE(solve_timer, nullptr);
  EXPECT_GT(solve_timer->hist.total(), 0);
  // The trace recorder saw structured events from the same run.
  EXPECT_GT(telemetry::TraceRecorder::Global().size(), 0u);
}

struct SteadyRunResult {
  uint64_t fingerprint = 0;
  uint64_t transition_digest = 0;
  std::vector<RungTransition> transitions;
  int64_t jobs_completed = 0;
  int64_t timeseries_samples = 0;
  size_t recorder_journals = 0;
};

// Chaos-faulted steady-state run with EVERY telemetry subsystem engaged —
// metrics registry, trace recorder, flight recorder, and the SLO sampler —
// versus the same run with all of them off. The flight recorder hooks sit on
// the controller's admission/schedule/cancel paths and on the simulator's
// rate-reallocation epilogue, so this is the strongest observer-effect test
// the repo has: faults fire, admission rejects, the ladder degrades, and the
// journals record all of it without perturbing one bit of the outcome.
SteadyRunResult RunSteadyOnce(bool all_telemetry_on) {
  if (all_telemetry_on) {
    telemetry::MetricsRegistry::Global().Reset();
    telemetry::TraceRecorder::Global().Start();
    telemetry::FlightRecorder::Global().Start();
  } else {
    telemetry::TraceRecorder::Global().Stop();
    telemetry::FlightRecorder::Global().Stop();
    telemetry::SetEnabled(false);
  }

  BdsOptions options;
  options.block_size = MB(2.0);
  options.cycle_length = 3.0;
  options.validate_invariants = true;
  options.seed = 7;
  Topology topo =
      BuildFullMesh(4, 1, MBps(1.0), MBps(4.0), MBps(4.0)).value();
  auto service = BdsService::Create(std::move(topo), options).value();
  EXPECT_TRUE(service->InstallChaos(/*seed=*/21).ok());

  SteadyStateOptions steady;
  steady.duration = Hours(2.0);
  steady.drain = true;
  steady.drain_limit = Hours(1.0);
  steady.arrivals.pattern = ArrivalPattern::kBursty;
  steady.arrivals.jobs_per_hour = 1800.0;
  steady.arrivals.burst_factor = 4.0;
  steady.arrivals.burst_fraction = 0.2;
  steady.arrivals.mean_burst_seconds = 600.0;
  steady.arrivals.size_scale = 2e-6;
  steady.arrivals.seed = 99;
  steady.admission.enabled = true;
  steady.admission.policy = AdmissionPolicy::kReject;
  steady.admission.max_backlog_cycles = 30.0;
  steady.admission.bootstrap_cycles = 8;
  steady.overload.enabled = true;
  steady.overload.cost.base_seconds = 1e-4;
  steady.overload.cost.per_pending_seconds = 1.2e-2;
  steady.overload.recover_cycles = 5;
  // The sampler runs only in the instrumented configuration; it must still
  // not shift the fingerprint.
  steady.timeseries.enabled = all_telemetry_on;
  steady.timeseries.sample_dt = 30.0;

  SteadyRunResult out;
  auto report = service->RunSteadyState(steady);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    out.fingerprint = report->Fingerprint();
    out.transition_digest = report->transition_digest;
    out.transitions = report->transitions;
    out.jobs_completed = report->jobs_completed;
    out.timeseries_samples = report->timeseries_samples;
  }
  out.recorder_journals = telemetry::FlightRecorder::Global().num_transfers();

  telemetry::TraceRecorder::Global().Stop();
  telemetry::FlightRecorder::Global().Stop();
  telemetry::SetEnabled(false);
  return out;
}

TEST(TelemetryDeterminismTest, ChaosSteadyStateFingerprintParityAllOnVsAllOff) {
  SteadyRunResult off = RunSteadyOnce(/*all_telemetry_on=*/false);
  SteadyRunResult on = RunSteadyOnce(/*all_telemetry_on=*/true);

  // Bitwise-identical outcome: fingerprint covers the run report, the
  // transition log, admission counts, and generated jobs.
  EXPECT_EQ(off.fingerprint, on.fingerprint);
  EXPECT_EQ(off.transition_digest, on.transition_digest);
  ASSERT_EQ(off.transitions.size(), on.transitions.size());
  for (size_t i = 0; i < off.transitions.size(); ++i) {
    EXPECT_TRUE(off.transitions[i] == on.transitions[i]) << "transition " << i;
  }
  EXPECT_EQ(off.jobs_completed, on.jobs_completed);

  // The instrumented run really observed the system; the bare run recorded
  // nothing.
  EXPECT_GT(on.jobs_completed, 0);
  EXPECT_GT(on.timeseries_samples, 0);
  EXPECT_GT(on.recorder_journals, 0u);
  EXPECT_EQ(off.timeseries_samples, 0);
  EXPECT_EQ(off.recorder_journals, 0u);
}

TEST(TelemetryDeterminismTest, TelemetrySnapshotExcludedFromFingerprint) {
  // Same seed, telemetry on both times: the second run's snapshot contains
  // different wall-clock-derived histogram sums, yet fingerprints match.
  RunResult a = RunOnce(/*seed=*/13, /*with_telemetry=*/true);
  RunResult b = RunOnce(/*seed=*/13, /*with_telemetry=*/true);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_FALSE(a.telemetry.empty());
  EXPECT_FALSE(b.telemetry.empty());
}

// The histograms' publish paths, pinned against what was recorded. The
// simulator publishes `sim.component_flows` from plain per-drive-call
// accumulators (its count is the `sim.component_solves` counter), so a
// script with hand-countable solves checks count, sum and max.
TEST(TelemetryPublishTest, ComponentFlowsSummarizeEverySolve) {
  Topology topo;
  DcId a = topo.AddDatacenter("a");
  DcId b = topo.AddDatacenter("b");
  const Rate rate = MBps(10.0);
  const LinkId shared = topo.server(topo.AddServer(a, rate, rate).value()).uplink;
  const LinkId alone = topo.server(topo.AddServer(b, rate, rate).value()).uplink;
  telemetry::MetricsRegistry::Global().Reset();
  telemetry::SetEnabled(true);
  NetworkSimulator sim(&topo);
  // Three fair flows share one link (done at 9 s, 11 s, 12 s) and one more
  // runs alone (done at 5 s). Solves: {3, 1} at the start, then 2 and 1
  // members as the shared link's flows leave; a drained link solves nothing.
  for (double mb : {10.0, 20.0, 30.0}) {
    ASSERT_TRUE(sim.StartFlow({shared}, MB(mb)).ok());
  }
  ASSERT_TRUE(sim.StartFlow({alone}, MB(50.0)).ok());
  ASSERT_TRUE(sim.RunUntilIdle().ok());
  telemetry::SetEnabled(false);
  const telemetry::MetricsSnapshot snap = telemetry::MetricsRegistry::Global().Snapshot();
  const auto* flows = snap.FindHistogram("sim.component_flows");
  ASSERT_NE(flows, nullptr);
  EXPECT_EQ(snap.CounterValue("sim.component_solves"), 4);
  EXPECT_EQ(flows->hist.total(), 4);
  EXPECT_EQ(flows->sum, 7.0);
  EXPECT_EQ(flows->max, 3.0);
}

// Whole-run consistency: one sample per completed job, one per solve.
TEST(TelemetryPublishTest, JobCompletionMinutesCountCompletedJobs) {
  telemetry::MetricsRegistry::Global().Reset();
  telemetry::SetEnabled(true);
  BdsOptions options;
  options.cycle_length = 1.0;
  Topology topo = BuildFullMesh(3, 2, Gbps(1.0), MBps(50.0), MBps(50.0)).value();
  auto service = BdsService::Create(std::move(topo), options).value();
  ASSERT_TRUE(service->CreateJob(0, {1, 2}, MB(40.0)).ok());
  ASSERT_TRUE(service->CreateJob(1, {0}, MB(20.0)).ok());
  ASSERT_TRUE(service->CreateJob(2, {0, 1}, MB(30.0)).ok());
  auto report = service->Run(/*deadline=*/Hours(1.0));
  telemetry::SetEnabled(false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->completed);
  EXPECT_EQ(report->jobs_completed_total, 3);
  const telemetry::MetricsSnapshot& snap = report->telemetry;
  const auto* minutes = snap.FindHistogram("controller.job_completion_minutes");
  ASSERT_NE(minutes, nullptr);
  EXPECT_EQ(minutes->hist.total(), report->jobs_completed_total);
  EXPECT_EQ(minutes->max, ToMinutes(report->job_durations.Max()));
  const auto* flows = snap.FindHistogram("sim.component_flows");
  ASSERT_NE(flows, nullptr);
  EXPECT_GT(flows->hist.total(), 0);
  EXPECT_EQ(flows->hist.total(), snap.CounterValue("sim.component_solves"));
  EXPECT_GE(flows->sum, static_cast<double>(flows->hist.total()));
}

}  // namespace
}  // namespace bds
