// Regenerates the paper's appendix analysis: with N blocks and m destination
// DCs, a *balanced* replica distribution (every block at k copies) always
// completes faster than an imbalanced one (half at k1, half at k2,
// (k1 + k2) / 2 = k) — the theorem motivating the rarest-first scheduling
// step (§4.3). Verified both analytically and by simulation: the same
// pre-seeded states driven through the actual BDS controller algorithm.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/baselines/ideal.h"
#include "src/core/service.h"
#include "src/scheduler/controller_algorithm.h"
#include "src/simulator/network_simulator.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

// Runs the controller algorithm cycle loop on a pre-seeded replica state
// until completion; returns the completion time.
SimTime RunSeeded(const Topology& topo, const WanRoutingTable& routing, ReplicaState& state) {
  NetworkSimulator sim(&topo);
  ControllerAlgorithmOptions options;
  options.cycle_length = 1.0;
  ControllerAlgorithm algorithm(&topo, &routing, options);
  std::vector<Rate> base_residual;
  for (const Link& l : topo.links()) {
    base_residual.push_back(l.capacity);
  }

  struct Pending {
    JobId job;
    int64_t block;
    ServerId src;
    ServerId dst;
  };
  std::unordered_map<int64_t, Pending> live;
  int64_t next_tag = 0;
  sim.SetCompletionCallback([&](const FlowRecord& rec) {
    auto it = live.find(rec.tag);
    if (it == live.end()) {
      return;
    }
    (void)state.NoteDelivery(it->second.job, it->second.block, it->second.src, it->second.dst);
    live.erase(it);
  });

  DeliveryKeySet in_flight;  // Deliveries stay in flight < 1 cycle here.
  for (int cycle = 0; cycle < 100000 && !state.AllComplete(); ++cycle) {
    CycleDecision decision = algorithm.Decide(cycle, state, base_residual, in_flight);
    if (decision.transfers.empty() && sim.num_active_flows() == 0) {
      break;  // Wedged (should not happen).
    }
    for (const TransferAssignment& t : decision.transfers) {
      // One flow per block keeps the bookkeeping simple at this scale.
      Bytes per_block = t.bytes / static_cast<double>(t.blocks.size());
      for (int64_t b : t.blocks) {
        int64_t tag = next_tag++;
        auto flow = sim.StartFlow(t.path.links, per_block,
                                  t.rate / static_cast<double>(t.blocks.size()), tag, 1);
        if (flow.ok()) {
          live[tag] = Pending{t.job, b, t.src_server, t.dst_server};
        }
      }
    }
    BDS_CHECK(sim.AdvanceBy(1.0).ok());
  }
  return sim.now();
}

bool Run() {
  const int kM = 6;           // Destination DCs.
  const int64_t kBlocks = 600;
  const Bytes kRho = MB(2.0);
  const Rate kR = MBps(20.0);

  bench::PrintHeader("Appendix", "balanced vs imbalanced replica availability",
                     "N=600 blocks, m=6 destination DCs, R=20 MB/s "
                     "(paper: t_A < t_B for every k1 < k < k2)");

  AsciiTable analytic({"k (balanced)", "k1/k2 (imbalanced)", "t_A (s)", "t_B (s)", "t_A < t_B"});
  bool analytic_holds = true;
  for (int k = 2; k < kM; ++k) {
    for (int k1 = 1; k1 < k; ++k1) {
      int k2 = 2 * k - k1;
      if (k2 <= k1 || k2 >= kM) {
        continue;
      }
      double ta = AppendixBalancedTime(kBlocks, kM, k, kRho, kR);
      double tb = AppendixImbalancedTime(kBlocks, kM, k1, k2, kRho, kR);
      analytic.AddRow({std::to_string(k), std::to_string(k1) + "/" + std::to_string(k2),
                       AsciiTable::Num(ta, 1), AsciiTable::Num(tb, 1),
                       ta < tb ? "yes" : "NO"});
      analytic_holds &= ta < tb;
    }
  }
  analytic.Print();
  std::printf("analytic: t_A < t_B in every row -> %s\n", analytic_holds ? "holds" : "VIOLATED");

  // Simulation cross-check: pre-seed a 7-DC deployment (1 origin + 6 dests)
  // with balanced (k=2) vs imbalanced (k1=1, k2=3) replica placement and
  // finish the job with the real controller algorithm.
  Topology topo = BuildFullMesh(kM + 1, 4, Gbps(10.0), kR, kR).value();
  auto routing = WanRoutingTable::Build(topo, 3).value();
  auto seeded_state = [&](bool balanced) {
    auto state = std::make_unique<ReplicaState>(&topo);
    std::vector<DcId> dests;
    for (DcId d = 1; d <= kM; ++d) {
      dests.push_back(d);
    }
    MulticastJob job = MakeJob(0, 0, dests, kRho * static_cast<double>(kBlocks), kRho).value();
    BDS_CHECK(state->AddJob(job).ok());
    for (int64_t b = 0; b < kBlocks; ++b) {
      // Every block already has replicas in `extra` destination DCs
      // (beyond the origin copy AddJob seeds).
      int extra = balanced ? 1 : (b < kBlocks / 2 ? 0 : 2);
      for (int e = 0; e < extra; ++e) {
        DcId dc = static_cast<DcId>(1 + (b + e) % kM);
        BDS_CHECK(state->AddReplica(0, b, state->AssignedServer(0, b, dc)).ok());
      }
    }
    return state;
  };

  auto balanced = seeded_state(true);
  SimTime t_balanced = RunSeeded(topo, routing, *balanced);
  auto imbalanced = seeded_state(false);
  SimTime t_imbalanced = RunSeeded(topo, routing, *imbalanced);

  const bool simulated_holds = t_balanced <= t_imbalanced;
  std::printf("simulated completion: balanced availability %.1f s, imbalanced %.1f s -> %s\n",
              t_balanced, t_imbalanced,
              simulated_holds ? "balanced wins (matches the theorem)" : "VIOLATED");
  std::printf("this is why the scheduling step equalizes duplicate counts (rarest-first, §4.3)\n");
  return analytic_holds && simulated_holds;
}

}  // namespace
}  // namespace bds

int main() {
  // Non-zero when a shape check reads VIOLATED (ctest label paper-shape).
  return bds::Run() ? 0 : 1;
}
