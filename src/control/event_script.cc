#include "src/control/event_script.h"

#include <algorithm>

#include "src/telemetry/telemetry.h"

namespace bds {

Status EventScript::Schedule(Timeline& timeline, int target, SimTime at, bool recovery) {
  const bool server = &timeline == &servers_;
  if (target < 0 || target >= (server ? num_servers_ : replicas_.num_replicas())) {
    return InvalidArgumentError(server ? "failure script: no such server"
                                       : "failure script: no such controller replica");
  }
  if (at < 0.0) {
    return InvalidArgumentError("failure script: event time is negative");
  }
  if (server) {
    // Replay this server's events up to `at`: the latest decides whether it
    // is up or down when the new event fires.
    const Event* last = nullptr;
    for (const Event& e : timeline.events) {
      if (e.target == target && e.at <= at + kFluidEpsilon &&
          (last == nullptr || e.at >= last->at)) {
        last = &e;
      }
    }
    const bool down = last != nullptr && !last->recovery;
    if (!recovery && down) {
      return FailedPreconditionError("failure script: server is already failed at that time");
    }
    if (recovery && !down) {
      return FailedPreconditionError(
          "failure script: recovery scheduled for a server that is not failed at that time");
    }
  }
  // After every not-yet-applied event at or before `at`: equal times keep
  // their scheduling order.
  auto pos = std::upper_bound(timeline.events.begin() + static_cast<long>(timeline.next),
                              timeline.events.end(), at,
                              [](SimTime t, const Event& e) { return t < e.at; });
  timeline.events.insert(pos, Event{target, at, recovery});
  return Status::Ok();
}

Status EventScript::ScheduleControllerOutage(SimTime from, SimTime to) {
  if (from >= to) {
    return InvalidArgumentError("failure script: controller outage window is inverted");
  }
  if (from < 0.0) {
    return InvalidArgumentError("failure script: controller outage starts before t=0");
  }
  outages_.emplace_back(from, to);
  return Status::Ok();
}

void EventScript::ApplyReplicaEvents(SimTime now) {
  while (std::optional<Event> e = replica_events_.TakeDue(now)) {
    Status s = e->recovery ? replicas_.RecoverReplica(e->target, e->at)
                           : replicas_.FailReplica(e->target, e->at);
    BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
    if (e->recovery) {
      BDS_TELEMETRY_COUNT("controller.replica_recoveries", 1);
    } else {
      BDS_TELEMETRY_COUNT("controller.replica_failures", 1);
    }
  }
}

bool EventScript::ControllerUp(SimTime now) {
  for (const auto& [from, to] : outages_) {
    if (now >= from - kFluidEpsilon && now < to - kFluidEpsilon) {
      return false;
    }
  }
  return replicas_.HasMaster(now);
}

bool EventScript::Exhausted(SimTime now) const {
  return servers_.done() && replica_events_.done() &&
         std::none_of(outages_.begin(), outages_.end(),
                      [now](const auto& o) { return o.first > now; });
}

}  // namespace bds
