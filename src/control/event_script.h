// The failure script a run replays as simulated time passes (§5.3): server
// failures and recoveries, controller outage windows, and controller-replica
// failures and recoveries with the replica set they drive (master election
// and failover delay; a headless window behaves like an outage).
//
// Each timeline is ordered by time and, at equal times, by scheduling order:
// a failure and a recovery scheduled for one instant apply failure first,
// exactly as the validator replays them.

#ifndef BDS_SRC_CONTROL_EVENT_SCRIPT_H_
#define BDS_SRC_CONTROL_EVENT_SCRIPT_H_

#include <optional>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/control/replication.h"

namespace bds {

class EventScript {
 public:
  struct Event {
    int target = 0;  // ServerId, or replica index.
    SimTime at = 0.0;
    bool recovery = false;
  };

  EventScript(int num_servers, ControllerReplicaSet::Options replication)
      : num_servers_(num_servers), replicas_(replication) {}

  // Reject malformed scripts: unknown servers or replicas, negative times,
  // failing an already-failed server, recovering a server that is not failed
  // (as of the scheduled time), and inverted outage windows. Replica
  // fail/recover are idempotent in the replica set, so they need no replay.
  Status ScheduleServerFailure(ServerId server, SimTime at) {
    return Schedule(servers_, server, at, /*recovery=*/false);
  }
  Status ScheduleServerRecovery(ServerId server, SimTime at) {
    return Schedule(servers_, server, at, /*recovery=*/true);
  }
  Status ScheduleReplicaFailure(int replica, SimTime at) {
    return Schedule(replica_events_, replica, at, /*recovery=*/false);
  }
  Status ScheduleReplicaRecovery(int replica, SimTime at) {
    return Schedule(replica_events_, replica, at, /*recovery=*/true);
  }
  Status ScheduleControllerOutage(SimTime from, SimTime to);

  // Pops the next server event due by `now`.
  std::optional<Event> TakeServerEvent(SimTime now) { return servers_.TakeDue(now); }
  // Applies every replica event due by `now` to the replica set.
  void ApplyReplicaEvents(SimTime now);
  // A master serves at `now`: no outage window covers it and the replica set
  // has elected one.
  bool ControllerUp(SimTime now);
  // Nothing scripted is left to happen after `now`.
  bool Exhausted(SimTime now) const;

  const ControllerReplicaSet& replicas() const { return replicas_; }

 private:
  struct Timeline {
    std::vector<Event> events;  // Ordered by (time, scheduling order).
    size_t next = 0;            // First event not yet applied.

    std::optional<Event> TakeDue(SimTime now) {
      if (done() || events[next].at > now + kFluidEpsilon) {
        return std::nullopt;
      }
      return events[next++];
    }
    bool done() const { return next >= events.size(); }
  };

  // The one validated, ordered insert behind every server and replica event.
  Status Schedule(Timeline& timeline, int target, SimTime at, bool recovery);

  int num_servers_;
  Timeline servers_;
  Timeline replica_events_;
  std::vector<std::pair<SimTime, SimTime>> outages_;  // [from, to) windows.
  ControllerReplicaSet replicas_;
};

}  // namespace bds

#endif  // BDS_SRC_CONTROL_EVENT_SCRIPT_H_
