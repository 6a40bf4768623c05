#include "src/control/job_intake.h"

#include <algorithm>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace bds {
namespace {
// Bound on the defer queue (jobs); overflowing rejects.
constexpr int64_t kMaxDeferredJobs = 256;

// Owed (block, destination DC) deliveries of a job.
int64_t Deliveries(const MulticastJob& job) {
  return job.num_blocks() * static_cast<int64_t>(job.dest_dcs.size());
}
}  // namespace

Status JobIntake::Submit(const MulticastJob& job, int num_dcs) {
  BDS_RETURN_IF_ERROR(job.Validate(num_dcs));
  script_.push_back(job);
  std::sort(script_.begin() + static_cast<long>(next_script_), script_.end(),
            [](const MulticastJob& a, const MulticastJob& b) {
              return a.arrival_time < b.arrival_time;
            });
  return Status::Ok();
}

void JobIntake::Admit(const MulticastJob& job, SimTime now, ReplicaState& state,
                      ReplicaState* view) {
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
  if (fr.active()) {
    fr.Arrival(job.id, now, job.source_dc, static_cast<int>(job.dest_dcs.size()),
               job.num_blocks(), job.total_bytes);
  }
  Status s = state.AddJob(job);
  BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
  if (view != nullptr) {
    Status vs = view->AddJob(job);
    BDS_CHECK_MSG(vs.ok(), vs.ToString().c_str());
  }
  auto note_dc = [this](DcId d) {
    if (std::find(active_dcs_.begin(), active_dcs_.end(), d) == active_dcs_.end()) {
      active_dcs_.push_back(d);
    }
  };
  note_dc(job.source_dc);
  for (DcId d : job.dest_dcs) {
    note_dc(d);
  }
}

bool JobIntake::AdmitDue(SimTime now, ReplicaState& state, ReplicaState* view) {
  bool added = false;
  while (next_script_ < script_.size() &&
         script_[next_script_].arrival_time <= now + kFluidEpsilon) {
    Admit(script_[next_script_], now, state, view);
    ++next_script_;
    added = true;
  }
  // The consumed script prefix is dead weight; shed it once it is large
  // enough to matter.
  if (next_script_ > 1024) {
    script_.erase(script_.begin(), script_.begin() + static_cast<long>(next_script_));
    next_script_ = 0;
  }
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
  // Re-offer deferred jobs first, FIFO: stop at the first still-deferred so
  // admission order is preserved.
  while (!deferred_.empty()) {
    const int64_t jd = Deliveries(deferred_.front());
    // The front job's own demand is part of deferred_deliveries_; the
    // backlog it would join excludes it.
    const int64_t backlog = state.num_pending() + deferred_deliveries_ - jd;
    if (admission_.ReofferDeferred(jd, backlog) != AdmissionDecision::kAccept) {
      break;
    }
    admission_.CountAccepted();
    if (fr.active()) {
      fr.AdmissionVerdict(deferred_.front().id, now, "accept", admission_.last_reason(), backlog);
    }
    deferred_deliveries_ -= jd;
    MulticastJob job = std::move(deferred_.front());
    deferred_.pop_front();
    Admit(job, now, state, view);
    added = true;
  }
  if (open_arrivals_ == nullptr) {
    return added;
  }
  while (open_arrivals_->NextArrivalTime() <= now + kFluidEpsilon &&
         open_arrivals_->NextArrivalTime() < arrivals_stop_) {
    MulticastJob job = open_arrivals_->Take();
    const int64_t jd = Deliveries(job);
    const int64_t backlog = state.num_pending() + deferred_deliveries_;
    switch (admission_.Admit(jd, backlog)) {
      case AdmissionDecision::kAccept:
        if (fr.active()) {
          fr.AdmissionVerdict(job.id, now, "accept", admission_.last_reason(), backlog);
        }
        Admit(job, now, state, view);
        added = true;
        break;
      case AdmissionDecision::kDefer:
        if (static_cast<int64_t>(deferred_.size()) < kMaxDeferredJobs) {
          admission_.CountDeferred();
          if (fr.active()) {
            fr.AdmissionVerdict(job.id, now, "defer", admission_.last_reason(), backlog);
          }
          deferred_deliveries_ += jd;
          deferred_.push_back(std::move(job));
        } else {
          admission_.CountRejected();
          if (fr.active()) {
            fr.AdmissionVerdict(job.id, now, "reject", "defer_overflow", backlog);
          }
          BDS_TELEMETRY_COUNT("controller.jobs_rejected", 1);
        }
        break;
      case AdmissionDecision::kReject:
        if (fr.active()) {
          fr.AdmissionVerdict(job.id, now, "reject", admission_.last_reason(), backlog);
        }
        BDS_TELEMETRY_COUNT("controller.jobs_rejected", 1);
        break;
    }
  }
  return added;
}

}  // namespace bds
