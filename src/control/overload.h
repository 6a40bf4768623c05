// Cycle-deadline watchdog: overload detection and the graceful-degradation
// ladder for the long-running service mode.
//
// BDS's guarantees hold only while the controller finishes each decision
// cycle inside cycle_length (3 s, §5); at 1e7 blocks sustained open-loop
// arrivals can push cycles over budget. The watchdog charges every cycle a
// CPU cost, models the overrun as decision *staleness* (decisions reach
// agents late, in simulated time), and steps the controller down the
// degradation ladder (src/scheduler/degradation.h) one rung per overrunning
// cycle; a run of calm cycles steps back up, with hysteresis so the ladder
// does not flap.
//
// Determinism: the charged cost is a *model* — a deterministic function of
// the cycle's decision counts (pending deliveries, selected blocks, merged
// subtasks) and the rung's knob positions (KnobsForRung), calibrated against
// measured per-phase CPU of the fleet-scale cycle. Counts are bit-identical
// across thread/shard counts, so ladder transitions and the staleness they
// inject are too. The watchdog never charges measured CPU: that would make
// the ladder, and so the run, differ from one machine (or one run) to the
// next.

#ifndef BDS_SRC_CONTROL_OVERLOAD_H_
#define BDS_SRC_CONTROL_OVERLOAD_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/scheduler/controller_algorithm.h"
#include "src/scheduler/degradation.h"

namespace bds {

// Modeled controller CPU seconds for one decision cycle. Linear in the
// cycle's work counts with an FPTAS term that scales with route count and
// 1/epsilon^2 (Garg–Könemann phase count). Defaults are calibrated so the
// fleet point (1e7 pending, ~3e4 selected, ~2.7e4 subtasks, 3 routes,
// eps 0.1) prices at ~2.2 s, the all-on sharded cycle as measured when the
// watchdog was introduced. The same 1e7-block cycle now measures ~1.47 s
// CPU (BENCH_controller.json, fleet_shards4). The coefficients are left
// unchanged on purpose: recalibrating them moves ladder transitions, which
// is a behaviour change and wants its own fingerprint re-baseline.
struct CycleCostModel {
  static constexpr double kPerSelectedSeconds = 2.0e-6;  // Selection pops + transfer emission.
  static constexpr double kPerSubtaskRouteSeconds = 1.1e-5;  // FPTAS push loops, per
                                                             // commodity-path at kEpsilonRef.
  static constexpr double kEpsilonRef = 0.1;  // Epsilon the route term is calibrated at.

  double base_seconds = 1e-4;           // Fixed per-cycle overhead.
  double per_pending_seconds = 1.3e-7;  // Candidate build, per owed delivery.

  double Cost(int64_t pending, int64_t selected, int64_t subtasks, int routes_per_subtask,
              double epsilon) const;
};

// Cap on the lateness charged to one cycle's decisions (watchdog staleness
// and the controller's modeled feedback delay), as a fraction of cycle_length.
inline constexpr double kMaxDecisionLagFraction = 0.9;

// A cycle overruns when its cost exceeds cycle_length and is calm under half
// of it; recover_cycles calm cycles in a row step one rung back up.
struct OverloadOptions {
  bool enabled = false;
  CycleCostModel cost;
  int recover_cycles = 5;
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
  // `algorithm` is what the controller runs with: it gives the cycle length
  // and the configured knobs each rung is priced from.
  CycleWatchdog(const OverloadOptions& options, const ControllerAlgorithmOptions& algorithm)
      : options_(options), algorithm_(algorithm) {}

  // Prices the cycle that just ran at the current rung. `pending` is the
  // owed-delivery count handed to the scheduler, `selected` / `subtasks`
  // come from the cycle's decision. At kExtendDecisions only the base cost
  // is charged (scheduling and routing were skipped).
  double ModelCost(int64_t pending, int64_t selected, int64_t subtasks) const;

  // Simulated lateness to charge this cycle's decisions: how far past
  // cycle_length the cycle ran, capped at kMaxDecisionLagFraction.
  SimTime StalenessFor(double cost_seconds) const;

  // Folds one cycle's cost into the ladder state and returns the rung the
  // NEXT cycle should run at. Also accumulates overrun counters, per-rung
  // occupancy, and the transition log.
  DegradationRung Observe(int64_t cycle, double cost_seconds);

  bool enabled() const { return options_.enabled; }
  DegradationRung rung() const { return rung_; }
  int64_t overrun_cycles() const { return overrun_cycles_; }
  double worst_overrun_seconds() const { return worst_overrun_; }
  const std::array<int64_t, kNumDegradationRungs>& rung_cycles() const { return rung_cycles_; }
  const std::vector<RungTransition>& transitions() const { return transitions_; }

  // Order-sensitive digest of the transition log (cycle, from, to, cost).
  uint64_t TransitionDigest() const;

 private:
  OverloadOptions options_;
  ControllerAlgorithmOptions algorithm_;
  DegradationRung rung_ = DegradationRung::kNormal;
  int calm_streak_ = 0;
  int64_t overrun_cycles_ = 0;
  double worst_overrun_ = 0.0;
  std::array<int64_t, kNumDegradationRungs> rung_cycles_{};
  std::vector<RungTransition> transitions_;
};

}  // namespace bds

#endif  // BDS_SRC_CONTROL_OVERLOAD_H_
