// Shard-parity property suite for the fleet-scale sharded controller: for
// ANY shard count and ANY thread count, every CycleDecision must equal the
// unsharded single-threaded controller's decision bit for bit, across full
// multi-cycle runs where each cycle's decision feeds the next cycle's state.
// The suite drives randomized topologies/workloads (seeded, deterministic)
// through the algorithm layer and the whole service.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/core/service.h"
#include "src/scheduler/controller_algorithm.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

struct Scenario {
  Topology topo;
  WanRoutingTable routing;
  std::vector<Rate> residual;
  std::vector<MulticastJob> jobs;

  explicit Scenario(Topology t)
      : topo(std::move(t)), routing(WanRoutingTable::Build(topo, 3).value()) {}
};

// Seeded random deployment + workload: 3-5 DCs, 1-3 servers each, 1-3
// multicast jobs with varied sources, destination sets, and block counts.
// Every rng draw happens in a fixed statement order so the scenario is a
// pure function of the seed.
Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const int dcs = static_cast<int>(rng.UniformInt(3, 5));
  const int servers = static_cast<int>(rng.UniformInt(1, 3));
  const double wan = rng.Uniform(0.5, 2.0);
  const double up = rng.Uniform(15.0, 40.0);
  const double down = rng.Uniform(15.0, 40.0);
  Scenario sc(BuildFullMesh(dcs, servers, Gbps(wan), MBps(up), MBps(down)).value());
  for (const Link& l : sc.topo.links()) {
    sc.residual.push_back(l.capacity);
  }
  const int num_jobs = static_cast<int>(rng.UniformInt(1, 3));
  for (int j = 0; j < num_jobs; ++j) {
    const DcId src = static_cast<DcId>(rng.UniformInt(0, dcs - 1));
    std::vector<DcId> dests;
    for (DcId d = 0; d < dcs; ++d) {
      if (d != src && (dests.empty() || rng.Bernoulli(0.6))) {
        dests.push_back(d);
      }
    }
    const int64_t blocks = rng.UniformInt(16, 160);
    sc.jobs.push_back(MakeJob(static_cast<JobId>(j + 1), src, dests,
                              MB(2.0) * static_cast<double>(blocks), MB(2.0))
                          .value());
  }
  return sc;
}

// Runs `max_cycles` controller cycles, applying every decided transfer as a
// completed delivery before the next cycle (so rarest-first sees an evolving
// replica distribution), and folds each cycle's decision fingerprint into
// one digest. Two option sets that decide identically at every cycle — the
// sharding contract — produce equal digests; the first divergent cycle also
// diverges every later one, so differences cannot cancel.
uint64_t RunFingerprint(const Scenario& sc, const ControllerAlgorithmOptions& opt,
                        int max_cycles) {
  ReplicaState state(&sc.topo);
  for (const MulticastJob& job : sc.jobs) {
    BDS_CHECK(state.AddJob(job).ok());
  }
  ControllerAlgorithm algo(&sc.topo, &sc.routing, opt);
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  };
  for (int c = 0; c < max_cycles && !state.AllComplete(); ++c) {
    CycleDecision d = algo.Decide(c, state, sc.residual, {});
    mix(d.Fingerprint());
    if (d.transfers.empty()) {
      break;
    }
    for (const TransferAssignment& t : d.transfers) {
      for (int64_t b : t.blocks) {
        BDS_CHECK(state.NoteDelivery(t.job, b, t.src_server, t.dst_server).ok());
      }
    }
  }
  return h;
}

ControllerAlgorithmOptions Options(int num_shards, int num_threads) {
  ControllerAlgorithmOptions opt;
  opt.num_shards = num_shards;
  opt.num_threads = num_threads;
  return opt;
}

// The headline property: >= 30 seeds x shards {1, 2, 4, 8} x threads {1, 4},
// multi-cycle, bitwise-equal decision fingerprints vs the unsharded
// single-threaded controller.
TEST(ShardParityTest, MatchesUnshardedBitForBitAcrossShardAndThreadCounts) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Scenario sc = MakeScenario(seed);
    const uint64_t base = RunFingerprint(sc, Options(1, 1), 6);
    for (int shards : {1, 2, 4, 8}) {
      for (int threads : {1, 4}) {
        if (shards == 1 && threads == 1) {
          continue;
        }
        EXPECT_EQ(RunFingerprint(sc, Options(shards, threads), 6), base)
            << "seed=" << seed << " shards=" << shards << " threads=" << threads;
      }
    }
  }
}

// Every scheduling policy and both merge settings must shard identically too.
TEST(ShardParityTest, ParityHoldsAcrossPoliciesAndKnobs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Scenario sc = MakeScenario(seed);
    for (SchedulingPolicy policy : {SchedulingPolicy::kRarestFirst, SchedulingPolicy::kRandom,
                                    SchedulingPolicy::kSequential}) {
      for (bool merge : {true, false}) {
        ControllerAlgorithmOptions opt = Options(1, 1);
        opt.policy = policy;
        opt.merge_subtasks = merge;
        const uint64_t base = RunFingerprint(sc, opt, 4);
        for (int shards : {2, 8}) {
          ControllerAlgorithmOptions sharded = opt;
          sharded.num_shards = shards;
          sharded.num_threads = 4;
          EXPECT_EQ(RunFingerprint(sc, sharded, 4), base)
              << "seed=" << seed << " policy=" << static_cast<int>(policy)
              << " merge=" << merge << " shards=" << shards;
        }
      }
    }
  }
}

// Whole-service parity: the same workload through BdsService with sharding
// and threading on must reproduce the unsharded RunReport fingerprint
// (completion times, deliveries, per-cycle stats — everything the simulation
// determines).
TEST(ShardParityTest, ServiceRunReportFingerprintInvariant) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto run = [&](int shards, int threads) {
      Topology topo =
          BuildFullMesh(3 + static_cast<int>(seed % 3), 2, Gbps(1.0), MBps(20.0), MBps(20.0))
              .value();
      BdsOptions options;
      options.seed = seed;
      options.num_shards = shards;
      options.num_threads = threads;
      auto service = BdsService::Create(std::move(topo), options);
      BDS_CHECK(service.ok());
      BDS_CHECK(
          (*service)->CreateJob(0, {1, 2}, MB(30.0 + 8.0 * static_cast<double>(seed))).ok());
      BDS_CHECK((*service)->CreateJob(1, {0, 2}, MB(16.0)).ok());
      auto report = (*service)->Run();
      BDS_CHECK(report.ok());
      BDS_CHECK(report->completed);
      return report->Fingerprint();
    };
    const uint64_t base = run(1, 1);
    EXPECT_EQ(run(4, 1), base) << "seed=" << seed;
    EXPECT_EQ(run(8, 4), base) << "seed=" << seed;
  }
}

// Observability fields: the per-phase CPU timings (excluded from the
// fingerprint) are populated for sharded and unsharded decisions alike.
TEST(ShardParityTest, ShardObservabilityFieldsPopulated) {
  Scenario sc = MakeScenario(11);
  ReplicaState state(&sc.topo);
  for (const MulticastJob& job : sc.jobs) {
    BDS_CHECK(state.AddJob(job).ok());
  }
  ControllerAlgorithm unsharded(&sc.topo, &sc.routing, Options(1, 1));
  ControllerAlgorithm sharded(&sc.topo, &sc.routing, Options(4, 1));
  CycleDecision du = unsharded.Decide(0, state, sc.residual, {});
  CycleDecision ds = sharded.Decide(0, state, sc.residual, {});
  ASSERT_GT(du.scheduled_blocks, 0);
  for (const CycleDecision* d : {&du, &ds}) {
    EXPECT_GE(d->select_cpu_seconds, 0.0);
    EXPECT_GE(d->solve_cpu_seconds, 0.0);
    EXPECT_GE(d->merge_cpu_seconds, 0.0);
  }
  EXPECT_EQ(du.Fingerprint(), ds.Fingerprint());
}

}  // namespace
}  // namespace bds
