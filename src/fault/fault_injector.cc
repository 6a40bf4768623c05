#include "src/fault/fault_injector.h"

#include <algorithm>

#include "src/telemetry/telemetry.h"

namespace bds {

Status FaultInjector::ValidateLink(const Topology& topo, LinkId link, SimTime from,
                                   SimTime to) const {
  if (link < 0 || link >= topo.num_links()) {
    return InvalidArgumentError("FaultInjector: no such link");
  }
  if (from < 0.0) {
    return InvalidArgumentError("FaultInjector: fault window starts before t=0");
  }
  if (from >= to) {
    return InvalidArgumentError("FaultInjector: fault window is empty (from >= to)");
  }
  if (next_event_ > 0) {
    return FailedPreconditionError("FaultInjector: schedule is frozen once events were consumed");
  }
  return Status::Ok();
}

void FaultInjector::PushEvent(SimTime at, LinkId link, double factor) {
  timeline_.push_back(OrderedEvent{LinkFaultEvent{at, link, factor}, next_seq_++});
  sorted_ = false;
}

Status FaultInjector::AddLinkDown(const Topology& topo, LinkId link, SimTime from, SimTime to) {
  BDS_RETURN_IF_ERROR(ValidateLink(topo, link, from, to));
  PushEvent(from, link, 0.0);
  PushEvent(to, link, 1.0);
  return Status::Ok();
}

Status FaultInjector::AddLinkDegradation(const Topology& topo, LinkId link, SimTime from,
                                         SimTime to, double factor) {
  BDS_RETURN_IF_ERROR(ValidateLink(topo, link, from, to));
  if (factor <= 0.0 || factor >= 1.0) {
    return InvalidArgumentError("FaultInjector: degradation factor must be in (0, 1)");
  }
  PushEvent(from, link, factor);
  PushEvent(to, link, 1.0);
  return Status::Ok();
}

Status FaultInjector::AddLinkFlapping(const Topology& topo, LinkId link, SimTime from, SimTime to,
                                      SimTime period, double duty) {
  BDS_RETURN_IF_ERROR(ValidateLink(topo, link, from, to));
  if (period <= 0.0) {
    return InvalidArgumentError("FaultInjector: flap period must be positive");
  }
  if (duty <= 0.0 || duty >= 1.0) {
    return InvalidArgumentError("FaultInjector: flap duty cycle must be in (0, 1)");
  }
  // Expand the square wave into plain down/up events; determinism comes for
  // free because expansion happens once, at schedule time.
  for (SimTime t = from; t < to; t += period) {
    PushEvent(t, link, 0.0);
    SimTime up = std::min(t + period * duty, to);
    if (up < to) {
      PushEvent(up, link, 1.0);
    }
  }
  PushEvent(to, link, 1.0);
  return Status::Ok();
}

Status FaultInjector::SetControlPlaneFaults(const ControlPlaneFaultOptions& options) {
  if (options.report_loss_prob < 0.0 || options.report_loss_prob > 1.0 ||
      options.push_drop_prob < 0.0 || options.push_drop_prob > 1.0) {
    return InvalidArgumentError("FaultInjector: probabilities must be in [0, 1]");
  }
  if (options.report_timeout_cycles < 1 || options.push_retry_cycles < 1) {
    return InvalidArgumentError("FaultInjector: timeout/retry cycle counts must be >= 1");
  }
  control_ = options;
  return Status::Ok();
}

Status FaultInjector::SetDataPlaneFaults(const DataPlaneFaultOptions& options) {
  if (options.corruption_prob < 0.0 || options.corruption_prob > 1.0) {
    return InvalidArgumentError("FaultInjector: corruption_prob must be in [0, 1]");
  }
  data_ = options;
  return Status::Ok();
}

std::vector<LinkFaultEvent> FaultInjector::TakeLinkEventsUpTo(SimTime now) {
  if (!sorted_) {
    std::sort(timeline_.begin(), timeline_.end(),
              [](const OrderedEvent& a, const OrderedEvent& b) {
                if (a.event.at != b.event.at) {
                  return a.event.at < b.event.at;
                }
                return a.seq < b.seq;
              });
    sorted_ = true;
  }
  std::vector<LinkFaultEvent> due;
  while (next_event_ < timeline_.size() &&
         timeline_[next_event_].event.at <= now + kFluidEpsilon) {
    due.push_back(timeline_[next_event_].event);
    ++next_event_;
  }
  stats_.link_events += static_cast<int64_t>(due.size());
  BDS_TELEMETRY_COUNT("fault.link_events", static_cast<int64_t>(due.size()));
  return due;
}

bool FaultInjector::DrawReportLost(DcId dc) {
  if (control_.report_loss_prob <= 0.0) {
    return false;
  }
  int& misses = report_misses_[dc];
  if (!rng_.Bernoulli(control_.report_loss_prob)) {
    misses = 0;
    return false;
  }
  if (misses + 1 >= control_.report_timeout_cycles) {
    // Out-of-band reconciliation: staleness is bounded even at loss prob 1.
    ++stats_.reports_forced;
    BDS_TELEMETRY_COUNT("fault.reports_forced", 1);
    misses = 0;
    return false;
  }
  ++misses;
  ++stats_.reports_lost;
  BDS_TELEMETRY_COUNT("fault.reports_lost", 1);
  return true;
}

bool FaultInjector::DrawPushDropped(ServerId server) {
  if (control_.push_drop_prob <= 0.0) {
    return false;
  }
  int& misses = push_misses_[server];
  if (!rng_.Bernoulli(control_.push_drop_prob)) {
    misses = 0;
    return false;
  }
  if (misses + 1 >= control_.push_retry_cycles) {
    // The agent's retry/backoff ran out; it escalates to the §5.3 fallback
    // path and pulls the decision out-of-band — the push goes through.
    ++stats_.pushes_escalated;
    BDS_TELEMETRY_COUNT("fault.pushes_escalated", 1);
    misses = 0;
    return false;
  }
  ++misses;
  ++stats_.pushes_dropped;
  BDS_TELEMETRY_COUNT("fault.pushes_dropped", 1);
  return true;
}

bool FaultInjector::DrawBlockCorrupted() {
  if (data_.corruption_prob <= 0.0) {
    return false;
  }
  if (rng_.Bernoulli(data_.corruption_prob)) {
    ++stats_.blocks_corrupted;
    BDS_TELEMETRY_COUNT("fault.blocks_corrupted", 1);
    return true;
  }
  return false;
}

}  // namespace bds
