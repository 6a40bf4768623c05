#include "src/control/overload.h"

#include <algorithm>
#include <cstring>

namespace bds {

double CycleCostModel::Cost(int64_t pending, int64_t selected, int64_t subtasks,
                            int routes_per_subtask, double epsilon) const {
  const double eps = std::max(epsilon, 1e-3);
  const double eps_scale = (kEpsilonRef / eps) * (kEpsilonRef / eps);
  return base_seconds + per_pending_seconds * static_cast<double>(pending) +
         kPerSelectedSeconds * static_cast<double>(selected) +
         kPerSubtaskRouteSeconds * static_cast<double>(subtasks) *
             static_cast<double>(routes_per_subtask) * eps_scale;
}

double CycleWatchdog::ModelCost(int64_t pending, int64_t selected, int64_t subtasks) const {
  const RungKnobs k = KnobsForRung(rung_, algorithm_);
  if (k.skip_decisions) {
    return options_.cost.base_seconds;  // Scheduling and routing were skipped.
  }
  return options_.cost.Cost(pending, selected, subtasks, k.route_cap, k.fptas_epsilon);
}

SimTime CycleWatchdog::StalenessFor(double cost_seconds) const {
  const double over = cost_seconds - algorithm_.cycle_length;
  if (over <= 0.0) {
    return 0.0;
  }
  return std::min(over, kMaxDecisionLagFraction * algorithm_.cycle_length);
}

DegradationRung CycleWatchdog::Observe(int64_t cycle, double cost_seconds) {
  ++rung_cycles_[static_cast<size_t>(rung_)];
  const SimTime cycle_length = algorithm_.cycle_length;
  if (cost_seconds > cycle_length) {
    ++overrun_cycles_;
    worst_overrun_ = std::max(worst_overrun_, cost_seconds - cycle_length);
    calm_streak_ = 0;
    if (rung_ < DegradationRung::kExtendDecisions) {
      const DegradationRung next = static_cast<DegradationRung>(static_cast<int>(rung_) + 1);
      transitions_.push_back(RungTransition{cycle, rung_, next, cost_seconds});
      rung_ = next;
    }
  } else if (cost_seconds < 0.5 * cycle_length) {
    if (rung_ > DegradationRung::kNormal) {
      ++calm_streak_;
      if (calm_streak_ >= options_.recover_cycles) {
        const DegradationRung next = static_cast<DegradationRung>(static_cast<int>(rung_) - 1);
        transitions_.push_back(RungTransition{cycle, rung_, next, cost_seconds});
        rung_ = next;
        calm_streak_ = 0;
      }
    }
  } else {
    calm_streak_ = 0;  // Neither overrunning nor calm: hold the rung.
  }
  return rung_;
}

uint64_t CycleWatchdog::TransitionDigest() const {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  };
  mix(static_cast<uint64_t>(transitions_.size()));
  for (const RungTransition& t : transitions_) {
    mix(static_cast<uint64_t>(t.cycle));
    mix(static_cast<uint64_t>(t.from));
    mix(static_cast<uint64_t>(t.to));
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(t.modeled_cost));
    std::memcpy(&bits, &t.modeled_cost, sizeof(bits));
    mix(bits);
  }
  return h;
}

}  // namespace bds
