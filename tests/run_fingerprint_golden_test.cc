// Whole-run fingerprints pinned to constants: four BdsService runs at smoke
// size, shaped like the perfbench workloads plus a chaos seed, each at one
// and two worker threads. A refactor or speedup must reproduce every
// constant bit for bit. A deliberate behaviour change re-baselines these
// constants in its own change, and says why each one moved.
//
// The fingerprints cover everything simulation-determined that a run
// reports (RunReport::Fingerprint; SteadyStateReport::Fingerprint adds the
// ladder transitions and the admission counters), never wall-clock time.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/core/service.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::unique_ptr<BdsService> Create(Topology topo, int threads, uint64_t seed) {
  BdsOptions options;
  options.num_threads = threads;
  options.validate_invariants = true;
  options.seed = seed;
  return BdsService::Create(std::move(topo), options).value();
}

// The reference deployment: 10 DCs x 20 servers with 40 MB/s NICs.
Topology Geo() {
  GeoTopologyOptions geo;
  geo.num_dcs = 10;
  geo.servers_per_dc = 20;
  geo.server_up = MBps(40.0);
  geo.server_down = MBps(40.0);
  return BuildGeoTopology(geo).value();
}

SteadyStateOptions Steady(SimTime duration) {
  SteadyStateOptions steady;
  steady.duration = duration;
  steady.drain_limit = Hours(2.0);
  steady.max_cycle_stats = 0;
  steady.admission.enabled = true;
  steady.overload.enabled = true;
  return steady;
}

// One bulk job from DC 0 to DCs 1-3 (bulk_oneshot's shape, 1 GB).
std::string BulkOneShot(int threads) {
  auto service = Create(Geo(), threads, 11);
  EXPECT_TRUE(service->CreateJob(0, {1, 2, 3}, GB(1.0)).ok());
  StatusOr<RunReport> report = service->Run();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  return Hex(report->Fingerprint());
}

// Poisson small Fig-2-shaped jobs, admission and the ladder on
// (steady_small_jobs' shape, 10 simulated minutes).
std::string SteadySmallJobs(int threads) {
  auto service = Create(Geo(), threads, 12);
  SteadyStateOptions steady = Steady(Minutes(10.0));
  steady.arrivals.pattern = ArrivalPattern::kPoisson;
  steady.arrivals.jobs_per_hour = 6000.0;
  steady.arrivals.size_scale = 1e-6;
  steady.arrivals.seed = 13;
  StatusOr<SteadyStateReport> report = service->RunSteadyState(steady);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report->jobs_completed, 0);
  return Hex(report->Fingerprint());
}

// The 4-DC thin mesh with reject admission and the ladder under a stressed
// cost model, diurnal arrivals around the knee (thin_diurnal's shape, 2
// simulated hours).
std::string ThinDiurnal(int threads) {
  auto service = Create(BuildFullMesh(4, 1, MBps(1.0), MBps(4.0), MBps(4.0)).value(), threads, 14);
  SteadyStateOptions steady = Steady(Hours(2.0));
  steady.arrivals.pattern = ArrivalPattern::kDiurnal;
  steady.arrivals.jobs_per_hour = 1200.0;
  steady.arrivals.diurnal_amplitude = 0.5;
  steady.arrivals.diurnal_period = Hours(1.0);
  steady.arrivals.size_scale = 2e-6;
  steady.arrivals.seed = 15;
  steady.admission.policy = AdmissionPolicy::kReject;
  steady.overload.cost.base_seconds = 1e-4;
  steady.overload.cost.per_pending_seconds = 1.2e-2;
  steady.overload.recover_cycles = 5;
  StatusOr<SteadyStateReport> report = service->RunSteadyState(steady);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report->transitions.size(), 0u);  // The ladder moved.
  EXPECT_GT(report->admission.rejected, 0);   // Admission turned jobs away.
  return Hex(report->Fingerprint());
}

// One chaos seed with a controller outage and replica failures, plus a
// destination server that fails and recovers.
std::string Chaos(int threads) {
  BdsOptions options;
  options.cycle_length = 1.0;
  options.num_threads = threads;
  options.validate_invariants = true;
  options.seed = 16;
  Topology topo = BuildFullMesh(3, 2, Gbps(1.0), MBps(50.0), MBps(50.0)).value();
  auto service = BdsService::Create(std::move(topo), options).value();
  EXPECT_TRUE(service->CreateJob(0, {1, 2}, MB(60.0)).ok());
  ChaosOptions chaos;
  chaos.max_replica_failures = 2;
  StatusOr<ChaosPlan> plan = service->InstallChaos(16, chaos);
  EXPECT_TRUE(plan.ok());
  EXPECT_FALSE(plan->controller_outages.empty());
  EXPECT_FALSE(plan->replica_failures.empty());
  const ServerId victim = service->topology().ServersIn(1)[1];
  EXPECT_TRUE(service->InjectServerFailure(victim, 5.0).ok());
  EXPECT_TRUE(service->InjectServerRecovery(victim, 20.0).ok());
  StatusOr<RunReport> report = service->Run(Hours(2.0));
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  return Hex(report->Fingerprint());
}

class RunFingerprintGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(RunFingerprintGoldenTest, BulkOneShot) {
  EXPECT_EQ(BulkOneShot(GetParam()), "28e6ba2bcbf8e556");
}

TEST_P(RunFingerprintGoldenTest, SteadySmallJobs) {
  EXPECT_EQ(SteadySmallJobs(GetParam()), "7ea961602b2db88b");
}

TEST_P(RunFingerprintGoldenTest, ThinDiurnal) {
  EXPECT_EQ(ThinDiurnal(GetParam()), "830ebb61133c9d63");
}

TEST_P(RunFingerprintGoldenTest, Chaos) { EXPECT_EQ(Chaos(GetParam()), "931326b5115db6e4"); }

INSTANTIATE_TEST_SUITE_P(Threads, RunFingerprintGoldenTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace bds
