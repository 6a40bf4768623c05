// Declarative chaos schedules: one seed → one reproducible combination of
// link, control-plane, and data-plane faults drawn over a fixed horizon.
//
// The generator only installs *recoverable* faults — every link fault window
// closes before the horizon ends and every probabilistic fault is bounded by
// the injector's escalation rules — so a chaos run must still complete; the
// soak test asserts exactly that across many seeds.

#ifndef BDS_SRC_FAULT_CHAOS_H_
#define BDS_SRC_FAULT_CHAOS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/fault/fault_injector.h"
#include "src/topology/topology.h"

namespace bds {

struct ChaosOptions {
  // Faults are drawn with start times in [0, horizon); every window closes
  // by `horizon` so the run can recover and finish.
  SimTime horizon = 60.0;
  // How many faults of each kind to draw (counts are drawn in [0, max]).
  int max_link_downs = 2;
  int max_link_degradations = 2;
  int max_link_flaps = 1;
  // Upper bounds for the probabilistic faults (actual values drawn per seed).
  double report_loss_prob_max = 0.5;
  double push_drop_prob_max = 0.5;
  double corruption_prob_max = 0.05;
  // Also draw one full controller outage window (agents fall back, §5.3).
  bool include_controller_outage = true;
  // Individual controller-replica fail/recover windows (0 disables, keeping
  // the RNG draw sequence of older plans unchanged). Each event fails one
  // replica in [0, controller_replicas) and recovers it before the horizon;
  // the replica set handles failover, so these exercise master elections —
  // and a headless window if every replica happens to be down at once.
  int max_replica_failures = 0;
  int controller_replicas = 3;
};

// What a seed drew. `controller_outages` must be applied by the caller (the
// injector has no controller handle); everything else is already installed.
struct ChaosPlan {
  std::vector<std::pair<SimTime, SimTime>> controller_outages;
  // Per-replica fail/recover events; applied by the caller via
  // EventScript::ScheduleReplicaFailure/Recovery (like the outages, the
  // injector has no controller handle).
  struct ReplicaFailureEvent {
    int replica = 0;
    SimTime fail_at = 0.0;
    SimTime recover_at = 0.0;
  };
  std::vector<ReplicaFailureEvent> replica_failures;
  ControlPlaneFaultOptions control_plane;
  DataPlaneFaultOptions data_plane;
  int link_downs = 0;
  int link_degradations = 0;
  int link_flaps = 0;
  std::string description;  // One line, for bench tables and test logs.
};

// Draws a deterministic chaos combination from `seed` and installs the link
// and probabilistic faults on `injector`. Only WAN links are faulted (NIC
// faults are the existing server-failure script's job).
StatusOr<ChaosPlan> InstallRandomChaos(const Topology& topo, uint64_t seed,
                                       const ChaosOptions& options, FaultInjector* injector);

}  // namespace bds

#endif  // BDS_SRC_FAULT_CHAOS_H_
