// Named rungs of the controller's graceful-degradation ladder.
//
// When the cycle-deadline watchdog (src/control/overload.h) decides a cycle
// can no longer finish inside cycle_length, it steps the controller down this
// ladder one rung at a time; each rung trades decision quality for cycle CPU:
//
//   kNormal          full algorithm, configured knobs.
//   kFirstRouteOnly  route every subtask over its DC pair's routes[0] only
//                    (no alternate-route exploration).
//   kCoarseEpsilon   additionally coarsen the FPTAS epsilon to
//                    min(0.5, 4 * eps) — fewer phases, a worse allocation.
//   kShedCandidates  additionally cap the deliveries selected per cycle at
//                    4096, so the candidate build and the MCF stay small.
//   kExtendDecisions additionally skip scheduling + routing entirely;
//                    in-flight transfers keep their allocations (the §5.1
//                    non-blocking update extended for one more cycle).
//
// The enum lives in src/scheduler (not src/control) because the algorithm is
// what applies rungs 1-3; the watchdog that chooses the rung is control-side.

#ifndef BDS_SRC_SCHEDULER_DEGRADATION_H_
#define BDS_SRC_SCHEDULER_DEGRADATION_H_

namespace bds {

enum class DegradationRung : int {
  kNormal = 0,
  kFirstRouteOnly = 1,
  kCoarseEpsilon = 2,
  kShedCandidates = 3,
  kExtendDecisions = 4,
};

inline constexpr int kNumDegradationRungs = 5;

inline const char* DegradationRungName(DegradationRung rung) {
  switch (rung) {
    case DegradationRung::kNormal:
      return "normal";
    case DegradationRung::kFirstRouteOnly:
      return "first_route_only";
    case DegradationRung::kCoarseEpsilon:
      return "coarse_epsilon";
    case DegradationRung::kShedCandidates:
      return "shed_candidates";
    case DegradationRung::kExtendDecisions:
      return "extend_decisions";
  }
  return "unknown";
}

}  // namespace bds

#endif  // BDS_SRC_SCHEDULER_DEGRADATION_H_
