// Cycle-deadline watchdog: overload detection and the graceful-degradation
// ladder for the long-running service mode.
//
// BDS's guarantees hold only while the controller finishes each decision
// cycle inside cycle_length (3 s, §5); PR 6 measured the all-on sharded
// cycle at ~2.2 s CPU at 1e7 blocks, so sustained open-loop arrivals can
// push cycles over budget. The watchdog charges every cycle a CPU cost,
// models the overrun as decision *staleness* (decisions reach agents late,
// in simulated time), and steps the controller down the degradation ladder
// (src/scheduler/degradation.h) one rung per overrunning cycle; a run of
// calm cycles steps back up, with hysteresis so the ladder does not flap.
//
// Determinism: the charged cost is a *model* — a deterministic function of
// the cycle's decision counts (pending deliveries, selected blocks, merged
// subtasks) and the rung's knob positions, calibrated against measured
// per-phase CPU of the fleet-scale cycle. Counts are bit-identical across
// thread/shard counts, so ladder transitions and the staleness they inject
// are too. The watchdog never charges measured CPU: that would make the
// ladder, and so the run, differ from one machine (or one run) to the next.

#ifndef BDS_SRC_CONTROL_OVERLOAD_H_
#define BDS_SRC_CONTROL_OVERLOAD_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/scheduler/degradation.h"

namespace bds {

// Modeled controller CPU seconds for one decision cycle. Linear in the
// cycle's work counts with an FPTAS term that scales with route count and
// 1/epsilon^2 (Garg–Könemann phase count). Defaults are calibrated so the
// PR-6 fleet point (1e7 pending, ~3e4 selected, ~2.7e4 subtasks, 3 routes,
// eps 0.1) prices at ~2.2 s — the measured all-on sharded cycle.
struct CycleCostModel {
  double base_seconds = 1e-4;             // Fixed per-cycle overhead.
  double per_pending_seconds = 1.3e-7;    // Candidate build, per owed delivery.
  double per_selected_seconds = 2.0e-6;   // Selection pops + transfer emission.
  double per_subtask_route_seconds = 1.1e-5;  // FPTAS push loops, per
                                              // commodity-path at eps_ref.
  double fptas_epsilon_ref = 0.1;         // Epsilon the route term is calibrated at.

  double Cost(int64_t pending, int64_t selected, int64_t subtasks, int routes_per_subtask,
              double epsilon) const;
};

struct OverloadOptions {
  bool enabled = false;
  SimTime cycle_length = 3.0;
  CycleCostModel cost;
  // Escalate when cost > overrun_threshold * cycle_length.
  double overrun_threshold = 1.0;
  // A cycle is "calm" when cost < recover_threshold * cycle_length ...
  double recover_threshold = 0.5;
  // ... and this many consecutive calm cycles step one rung back up.
  int recover_cycles = 5;
  // Cap on the staleness charged to one cycle's decisions (fraction of
  // cycle_length); matches the feedback-delay cap in the controller.
  double max_staleness_fraction = 0.9;
  // Knob positions the cost model needs to price the current rung.
  int max_wan_routes = 3;
  double fptas_epsilon = 0.1;
  double degraded_epsilon_factor = 4.0;
};

// One ladder movement, for the steady-state report and the determinism test
// (transition logs must be bit-identical across thread/shard counts).
struct RungTransition {
  int64_t cycle = 0;
  DegradationRung from = DegradationRung::kNormal;
  DegradationRung to = DegradationRung::kNormal;
  double modeled_cost = 0.0;

  bool operator==(const RungTransition& o) const {
    return cycle == o.cycle && from == o.from && to == o.to && modeled_cost == o.modeled_cost;
  }
};

class CycleWatchdog {
 public:
  CycleWatchdog() : CycleWatchdog(OverloadOptions{}) {}
  explicit CycleWatchdog(const OverloadOptions& options) : options_(options) {}

  // Prices the cycle that just ran at the current rung. `pending` is the
  // owed-delivery count handed to the scheduler, `selected` / `subtasks`
  // come from the cycle's decision. At kExtendDecisions only the base cost
  // is charged (scheduling and routing were skipped).
  double ModelCost(int64_t pending, int64_t selected, int64_t subtasks) const;

  // Simulated lateness to charge this cycle's decisions: how far past
  // cycle_length the cycle ran, capped at max_staleness_fraction.
  SimTime StalenessFor(double cost_seconds) const;

  // Folds one cycle's cost into the ladder state and returns the rung the
  // NEXT cycle should run at. Also accumulates overrun counters, per-rung
  // occupancy, and the transition log.
  DegradationRung Observe(int64_t cycle, double cost_seconds);

  bool enabled() const { return options_.enabled; }
  const OverloadOptions& options() const { return options_; }
  DegradationRung rung() const { return rung_; }
  int64_t overrun_cycles() const { return overrun_cycles_; }
  double worst_overrun_seconds() const { return worst_overrun_; }
  const std::array<int64_t, kNumDegradationRungs>& rung_cycles() const { return rung_cycles_; }
  const std::vector<RungTransition>& transitions() const { return transitions_; }

  // Order-sensitive digest of the transition log (cycle, from, to, cost).
  uint64_t TransitionDigest() const;

 private:
  OverloadOptions options_;
  DegradationRung rung_ = DegradationRung::kNormal;
  int calm_streak_ = 0;
  int64_t overrun_cycles_ = 0;
  double worst_overrun_ = 0.0;
  std::array<int64_t, kNumDegradationRungs> rung_cycles_{};
  std::vector<RungTransition> transitions_;
};

}  // namespace bds

#endif  // BDS_SRC_CONTROL_OVERLOAD_H_
