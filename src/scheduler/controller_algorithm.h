// The BDS controller's per-cycle decision logic (§4) — the paper's core
// contribution. Decoupled into:
//
//   Scheduling (§4.3): generalized rarest-first selection of the block
//   deliveries to attempt this cycle, bounded by per-server upload/download
//   budgets (constraint (3) of §4.1), with balanced source selection.
//
//   Routing (§4.4): a max-throughput path-based multicommodity flow over the
//   selected deliveries, after merging blocks with the same (source,
//   destination) server pair into subtasks (§5.1). Solved with the
//   Garg–Könemann FPTAS by default; `use_exact_lp` switches to the exact
//   simplex ("standard LP"), and `merge_subtasks=false` disables merging —
//   together these reproduce the paper's Fig 13a/13b ablation.

#ifndef BDS_SRC_SCHEDULER_CONTROLLER_ALGORITHM_H_
#define BDS_SRC_SCHEDULER_CONTROLLER_ALGORITHM_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/types.h"
#include "src/lp/mcf.h"
#include "src/scheduler/decision.h"
#include "src/scheduler/degradation.h"
#include "src/scheduler/replica_state.h"
#include "src/topology/path.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace bds {

// Key for deliveries already in flight (excluded from re-scheduling —
// the non-blocking update of §5.1).
struct DeliveryKey {
  JobId job = kInvalidJob;
  int64_t block = -1;
  DcId dc = kInvalidDc;

  bool operator==(const DeliveryKey& o) const {
    return job == o.job && block == o.block && dc == o.dc;
  }
};

struct DeliveryKeyHash {
  size_t operator()(const DeliveryKey& k) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<uint64_t>(k.job));
    mix(static_cast<uint64_t>(k.block));
    mix(static_cast<uint64_t>(k.dc));
    return static_cast<size_t>(h);
  }
};

using DeliveryKeySet = std::unordered_set<DeliveryKey, DeliveryKeyHash>;

// Block-selection policy for the scheduling step. The paper's BDS uses
// generalized rarest-first (§4.3); the alternatives exist for the ablation
// bench showing why availability balancing matters (appendix theorem).
enum class SchedulingPolicy {
  kRarestFirst,  // Fewest replicas first, with speculative duplicate counts.
  kRandom,       // Uniformly random among pending deliveries.
  kSequential,   // Block order, destination-major (naive).
};

struct ControllerAlgorithmOptions {
  SimTime cycle_length = 3.0;  // Delta-T, the paper's default.
  SchedulingPolicy policy = SchedulingPolicy::kRarestFirst;
  double fptas_epsilon = 0.1;
  bool merge_subtasks = true;  // §5.1 block merging.
  bool use_exact_lp = false;   // Standard-LP mode (Fig 13a baseline).
  // Joint formulation: skip the scheduling step entirely and hand EVERY
  // outstanding delivery to the routing solver as its own commodity — the
  // undecoupled "standard routing formulation" of §3/§6.3.4 whose running
  // time explodes with block count. Combine with use_exact_lp and
  // merge_subtasks=false for the paper's Fig 13a baseline.
  bool schedule_all = false;
  int max_wan_routes = 3;      // Candidate WAN routes per server pair.
  // Fraction of a server's per-cycle byte budget the scheduler may commit.
  // Leaving headroom lets the (1 - eps)-approximate routing step satisfy
  // every scheduled demand in full, so transfers finish within the cycle
  // instead of straggling into the next one and blocking its budget.
  double budget_fraction = 0.9;
  // Worker threads for the per-subtask and per-candidate passes. 1 (the
  // default) runs everything on the calling thread; higher values fan the
  // independent work out over a small pool. Decisions are byte-identical
  // for every value (deterministic static partitioning, per-slot writes).
  int num_threads = 1;
  // Fleet-scale sharding (DESIGN.md "Sharded controller"). With K > 1 the
  // selection queue is split K ways: the candidate array is cut into K
  // contiguous shards, each carved into sorted runs in parallel, and popped
  // through a K-way merge. Decisions are bit-identical to num_shards = 1 for
  // ANY shard and thread count — selection pops the same strict total order
  // (see the shard-parity suite). Routing is one SolveMcfFptas call for
  // every K. Ignored by schedule_all.
  int num_shards = 1;
};

// One degradation rung's knob positions.
struct RungKnobs {
  int route_cap = 0;            // WAN routes per subtask.
  double fptas_epsilon = 0.0;   // Routing precision.
  int64_t max_deliveries = 0;   // Selection cap per cycle; 0 = none.
  bool skip_decisions = false;  // No scheduling or routing this cycle.
};

// The knobs `rung` runs with, from the configured ones in `options` (see the
// ladder in src/scheduler/degradation.h). The only place the rungs' positions
// are written down: the algorithm runs them and the watchdog prices them.
RungKnobs KnobsForRung(DegradationRung rung, const ControllerAlgorithmOptions& options);

class ControllerAlgorithm {
 public:
  ControllerAlgorithm(const Topology* topo, const WanRoutingTable* routing,
                      ControllerAlgorithmOptions options);

  // Computes this cycle's transfers. `residual_capacities` is per LinkId,
  // already net of latency-sensitive traffic and in-flight bulk transfers
  // (see BandwidthSeparator); `in_flight` deliveries are skipped.
  CycleDecision Decide(int64_t cycle, const ReplicaState& state,
                       const std::vector<Rate>& residual_capacities,
                       const DeliveryKeySet& in_flight);

  // Degradation ladder (set by the cycle-deadline watchdog before each
  // cycle). Rungs kFirstRouteOnly..kShedCandidates cheapen this Decide()
  // call with the knobs KnobsForRung gives them. kExtendDecisions is
  // realized by the controller (it skips Decide() entirely); the algorithm
  // treats it like kShedCandidates if called.
  void SetDegradationRung(DegradationRung rung) { rung_ = rung; }

  const ControllerAlgorithmOptions& options() const { return options_; }

 private:
  struct Selected {
    PendingDelivery delivery;
    Bytes bytes = 0.0;
    ServerId src_server = kInvalidServer;
  };

  // A schedulable delivery in packed 24-byte form (see ScheduleBlocks'
  // commentary): `key` packs (job position, block, dest-DC position) into
  // bit fields that strictly increase in PendingDeliveries() order, `salt`
  // is the deterministic pseudo-random tie-break, `eff_dup` the speculative
  // duplicate count. Ordering by (eff_dup, salt, key) has no ties.
  struct Candidate {
    int eff_dup;
    uint64_t salt;
    uint64_t key;
    bool operator>(const Candidate& o) const {
      if (eff_dup != o.eff_dup) {
        return eff_dup > o.eff_dup;
      }
      if (salt != o.salt) {
        return salt > o.salt;
      }
      return key > o.key;
    }
  };
  using CandVec = std::vector<Candidate>;

  // Scheduling step: rarest-first selection under capacity budgets.
  std::vector<Selected> ScheduleBlocks(const ReplicaState& state,
                                       const std::vector<Rate>& residual_capacities,
                                       const DeliveryKeySet& in_flight);

  // Routing step: merge into subtasks, build the MCF, allocate rates.
  void RouteBlocks(std::vector<Selected> selected, const std::vector<Rate>& residual_capacities,
                   CycleDecision& decision);

  const Topology* topo_;
  const WanRoutingTable* routing_;
  ControllerAlgorithmOptions options_;
  DegradationRung rung_ = DegradationRung::kNormal;
  ParallelRunner pool_;

  // Per-cycle scratch reused across Decide() calls so the routing step stops
  // re-allocating its MCF instance and path buffers every cycle.
  McfInstance mcf_instance_;
  std::vector<std::vector<ServerPath>> subtask_paths_;
  // The selection loop's candidate array. Only its allocation is reused —
  // the fleet-scale build would otherwise re-allocate hundreds of megabytes
  // per cycle; every Decide() rebuilds its contents from scratch.
  CandVec cand_work_;
};

// Splits `num_blocks` atomic blocks across a subtask's paths proportionally
// to the allocated `path_flow` rates: floor allocation per path, remainder —
// and anything a zero-rate path would have received — credited to the
// highest-rate path. Returns one count per path summing to num_blocks, or
// all zeros when no path carries meaningful rate. Exposed for unit tests;
// RouteBlocks uses it per subtask.
std::vector<int64_t> SplitBlocksAcrossPaths(int64_t num_blocks,
                                            const std::vector<double>& path_flow);

}  // namespace bds

#endif  // BDS_SRC_SCHEDULER_CONTROLLER_ALGORITHM_H_
