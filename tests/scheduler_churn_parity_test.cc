// Cross-cycle churn parity for the controller algorithm: no decision-
// affecting state may cross cycles. Over multi-cycle runs with job arrivals,
// retirements, deliveries, and server faults between cycles, a long-lived
// ControllerAlgorithm must decide bit for bit like a fresh one constructed
// for every cycle, for any shard/thread count — and also when it alternates
// Decide between the live ReplicaState and a lagging copy of it (the
// controller's stale-view pattern under report loss), so nothing it keeps
// can be keyed to, or leak between, state objects.

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

// Applies a decided transfer as deliveries. A decision taken on a lagging
// view may name a job retired since or a destination that failed since;
// such a transfer is dropped.
void ApplyTransfer(ReplicaState& state, const TransferAssignment& t) {
  if (state.FindJob(t.job) == nullptr || state.ServerFailed(t.dst_server)) {
    return;
  }
  for (int64_t b : t.blocks) {
    BDS_CHECK(state.NoteDelivery(t.job, b, t.src_server, t.dst_server).ok());
  }
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
    ApplyTransfer(state, t);
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

struct RunMode {
  // Construct a new ControllerAlgorithm for every cycle (the reference).
  bool fresh_per_cycle = false;
  // Decide odd cycles on a lagging view instead of the live state: a copy
  // taken at the start of the previous cycle that then received the reports
  // of every other transfer of that cycle (the rest were lost), and none of
  // its arrivals, retirements or faults. Its mutation history diverges from
  // the live state's, as the controller's separately maintained view does.
  bool lagging_view = false;
};

// Runs `cycles` decide+churn steps and folds every decision fingerprint into
// one digest; the first divergent cycle poisons all later ones.
uint64_t RunChurnFingerprint(uint64_t seed, const ControllerAlgorithmOptions& opt,
                             int cycles, RunMode mode) {
  Scenario sc = MakeScenario(seed);
  ReplicaState state(&sc.topo);
  Rng churn_rng(seed ^ 0x5DEECE66DULL);
  JobId next_job = 1;
  for (int j = 0; j < 3; ++j) {
    BDS_CHECK(state.AddJob(RandomJob(churn_rng, sc.topo, next_job++)).ok());
  }
  ControllerAlgorithm long_lived(&sc.topo, &sc.routing, opt);
  ReplicaState lagged = state;
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  };
  for (int c = 0; c < cycles; ++c) {
    const ReplicaState* view = &state;
    if (mode.lagging_view) {
      if (c % 2 == 0) {
        lagged = state;
      } else {
        view = &lagged;
      }
    }
    CycleDecision d;
    if (mode.fresh_per_cycle) {
      ControllerAlgorithm fresh(&sc.topo, &sc.routing, opt);
      d = fresh.Decide(c, *view, sc.residual, {});
    } else {
      d = long_lived.Decide(c, *view, sc.residual, {});
    }
    mix(d.Fingerprint());
    if (mode.lagging_view && c % 2 == 0) {
      for (size_t i = 0; i < d.transfers.size(); i += 2) {
        ApplyTransfer(lagged, d.transfers[i]);
      }
    }
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

// A long-lived controller decides every cycle of an arrival/retire/
// delivery/fault sequence bit for bit like a fresh controller per cycle,
// across shard and thread counts.
TEST(ChurnParityTest, LongLivedMatchesFreshControllerPerCycle) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const uint64_t fresh =
        RunChurnFingerprint(seed, Options(1, 1), 8, RunMode{.fresh_per_cycle = true});
    for (int shards : {1, 4}) {
      for (int threads : {1, 4}) {
        EXPECT_EQ(RunChurnFingerprint(seed, Options(shards, threads), 8, RunMode{}), fresh)
            << "seed " << seed << " shards " << shards << " threads " << threads;
      }
    }
  }
}

// Alternating Decide between the live state and a lagging view of it: a
// long-lived controller still decides like a fresh one on every view.
TEST(ChurnParityTest, AlternatingLiveAndLaggingViewMatchesFreshControllerPerCycle) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const uint64_t fresh = RunChurnFingerprint(
        seed, Options(1, 1), 8, RunMode{.fresh_per_cycle = true, .lagging_view = true});
    EXPECT_EQ(RunChurnFingerprint(seed, Options(1, 1), 8, RunMode{.lagging_view = true}),
              fresh)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace bds
