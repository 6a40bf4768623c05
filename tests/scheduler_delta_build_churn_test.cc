// Cross-cycle churn suite for the incremental controller (DESIGN.md §9.7).
//
// Churn parity (bitwise) over multi-cycle runs with job arrivals,
// retirements, deliveries, and server faults between cycles: the delta
// candidate build — persisted per-(job, chunk) summaries patched forward
// through the dirty set — must produce decisions bit-identical to a
// from-scratch build at every cycle, for any shard/thread count. The
// reference is the same controller with its cycle cache invalidated before
// every Decide: a cold cache makes every unit dirty, which is the
// from-scratch build. debug_verify_incremental additionally makes the
// algorithm rebuild from scratch internally and BDS_CHECK the arrays match
// element-wise. Server faults never invalidate the cache: the dirty stamps
// alone must cover them.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/scheduler/controller_algorithm.h"
#include "src/scheduler/replica_state.h"
#include "src/topology/builders.h"
#include "src/workload/job.h"

namespace bds {
namespace {

struct Scenario {
  Topology topo;
  WanRoutingTable routing;
  std::vector<Rate> residual;

  explicit Scenario(Topology t)
      : topo(std::move(t)), routing(WanRoutingTable::Build(topo, 3).value()) {
    for (const Link& l : topo.links()) {
      residual.push_back(l.capacity);
    }
  }
};

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const int dcs = static_cast<int>(rng.UniformInt(3, 5));
  const int servers = static_cast<int>(rng.UniformInt(2, 3));
  return Scenario(BuildFullMesh(dcs, servers, Gbps(rng.Uniform(0.5, 2.0)),
                                MBps(rng.Uniform(15.0, 40.0)),
                                MBps(rng.Uniform(15.0, 40.0)))
                      .value());
}

MulticastJob RandomJob(Rng& rng, const Topology& topo, JobId id) {
  const int dcs = topo.num_dcs();
  const DcId src = static_cast<DcId>(rng.UniformInt(0, dcs - 1));
  std::vector<DcId> dests;
  for (DcId d = 0; d < dcs; ++d) {
    if (d != src && (dests.empty() || rng.Bernoulli(0.6))) {
      dests.push_back(d);
    }
  }
  const int64_t blocks = rng.UniformInt(16, 200);
  return MakeJob(id, src, dests, MB(2.0) * static_cast<double>(blocks), MB(2.0)).value();
}

// One churn step, identical for every run of a seed: apply the decided
// transfers as deliveries, sometimes force-complete + retire the oldest live
// job, sometimes admit a new one, rarely fail a server. Every rng draw
// happens in fixed statement order so churn is a pure function of
// (seed, cycle, decision) — and parity makes the decision itself a pure
// function of the seed.
void ApplyChurn(Rng& rng, const Scenario& sc, ReplicaState& state,
                const CycleDecision& decision, JobId* next_job) {
  for (const TransferAssignment& t : decision.transfers) {
    for (int64_t b : t.blocks) {
      BDS_CHECK(state.NoteDelivery(t.job, b, t.src_server, t.dst_server).ok());
    }
  }
  if (rng.Bernoulli(0.35) && state.num_live_jobs() > 1) {
    const JobId oldest = state.job_ids().front();
    const MulticastJob& job = *state.FindJob(oldest);
    for (DcId dc : job.dest_dcs) {
      for (int64_t b = 0; b < job.num_blocks(); ++b) {
        const ServerId dst = state.AssignedServer(oldest, b, dc);
        if (!state.ServerFailed(dst)) {
          BDS_CHECK(state.AddReplica(oldest, b, dst).ok());
        }
      }
    }
    // A failed assigned server can leave the job permanently owing, in
    // which case RetireJob correctly refuses; the job just stays live.
    (void)state.RetireJob(oldest);
  }
  if (rng.Bernoulli(0.6)) {
    BDS_CHECK(state.AddJob(RandomJob(rng, sc.topo, (*next_job)++)).ok());
  }
  if (rng.Bernoulli(0.1)) {
    state.RemoveServer(static_cast<ServerId>(
        rng.UniformInt(0, sc.topo.num_servers() - 1)));
  }
}

// Runs `cycles` decide+churn steps and folds every decision fingerprint into
// one digest; the first divergent cycle poisons all later ones. `cold_cache`
// invalidates the controller's cycle cache before every Decide, forcing a
// from-scratch candidate build each cycle.
uint64_t RunChurnFingerprint(uint64_t seed, const ControllerAlgorithmOptions& opt,
                             int cycles, bool cold_cache = false) {
  Scenario sc = MakeScenario(seed);
  ReplicaState state(&sc.topo);
  Rng churn_rng(seed ^ 0x5DEECE66DULL);
  JobId next_job = 1;
  for (int j = 0; j < 3; ++j) {
    BDS_CHECK(state.AddJob(RandomJob(churn_rng, sc.topo, next_job++)).ok());
  }
  ControllerAlgorithm algo(&sc.topo, &sc.routing, opt);
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  };
  for (int c = 0; c < cycles; ++c) {
    if (cold_cache) {
      algo.InvalidateCycleCache();
    }
    CycleDecision d = algo.Decide(c, state, sc.residual, {});
    mix(d.Fingerprint());
    ApplyChurn(churn_rng, sc, state, d, &next_job);
  }
  return h;
}

ControllerAlgorithmOptions Options(int shards, int threads) {
  ControllerAlgorithmOptions opt;
  opt.num_shards = shards;
  opt.num_threads = threads;
  return opt;
}

// Churn parity: the delta build equals the from-scratch build bit for bit at
// every cycle of an arrival/retire/delivery/fault sequence, across shard and
// thread counts. debug_verify_incremental turns on the internal element-wise
// rebuild check as well.
TEST(WarmChurnTest, IncrementalMatchesLegacyAcrossChurn) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const uint64_t legacy =
        RunChurnFingerprint(seed, Options(1, 1), 8, /*cold_cache=*/true);
    ControllerAlgorithmOptions verify = Options(1, 1);
    verify.debug_verify_incremental = true;
    EXPECT_EQ(RunChurnFingerprint(seed, verify, 8), legacy) << "seed " << seed;
    for (int shards : {1, 4}) {
      for (int threads : {1, 4}) {
        EXPECT_EQ(RunChurnFingerprint(seed, Options(shards, threads), 8), legacy)
            << "seed " << seed << " shards " << shards << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace bds
