#include "src/control/controller.h"

#include <algorithm>
#include <cstring>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace bds {

std::vector<double> RunReport::ServerCompletionMinutes() const {
  std::vector<double> out;
  out.reserve(server_completion.size());
  for (const auto& [server, t] : server_completion) {
    out.push_back(ToMinutes(t));
  }
  return out;
}

namespace {
// splitmix64-style stream mixing, shared by RunReport::Fingerprint and the
// incremental digests the controller maintains (cycles, completions).
uint64_t MixU64(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 31;
  return h;
}

uint64_t MixDoubleU64(uint64_t h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return MixU64(h, bits);
}

struct Digest {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  void Mix(uint64_t v) { h = MixU64(h, v); }
  void MixDouble(double v) { h = MixDoubleU64(h, v); }
};

// Simulation-determined cycle fields folded into RunReport::cycles_digest.
// Wall-clock-derived values (scheduling/routing seconds and the feedback
// delay, which folds the algorithm's measured runtime in) are excluded: they
// vary run to run without the simulation differing.
uint64_t MixCycle(uint64_t h, const CycleStats& c) {
  h = MixU64(h, static_cast<uint64_t>(c.cycle));
  h = MixDoubleU64(h, c.start_time);
  h = MixU64(h, c.controller_up ? 1 : 0);
  h = MixU64(h, static_cast<uint64_t>(c.scheduled_blocks));
  h = MixU64(h, static_cast<uint64_t>(c.merged_subtasks));
  h = MixU64(h, static_cast<uint64_t>(c.transfers_started));
  h = MixU64(h, static_cast<uint64_t>(c.blocks_delivered));
  h = MixU64(h, static_cast<uint64_t>(c.rung));
  return h;
}
}  // namespace

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kDrained:
      return "drained";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kWedged:
      return "wedged";
    case StopReason::kAborted:
      return "aborted";
  }
  return "unknown";
}

uint64_t RunReport::Fingerprint() const {
  Digest d;
  d.Mix(completed ? 1 : 0);
  d.Mix(static_cast<uint64_t>(stop_reason));
  d.MixDouble(completion_time);
  d.Mix(static_cast<uint64_t>(deliveries));
  // The per-cycle history may be truncated in bounded-memory mode, so the
  // fingerprint covers cycles through the incrementally-maintained digest
  // (same fields MixCycle lists) rather than the retained vector.
  d.Mix(static_cast<uint64_t>(total_cycles));
  d.Mix(cycles_digest);
  d.Mix(static_cast<uint64_t>(jobs_completed_total));
  d.Mix(completion_digest);
  d.Mix(static_cast<uint64_t>(retired_jobs));
  d.Mix(static_cast<uint64_t>(retired_blocks));
  d.Mix(static_cast<uint64_t>(peak_live_pending));
  d.Mix(static_cast<uint64_t>(peak_live_jobs));
  d.Mix(static_cast<uint64_t>(peak_live_flows));
  auto mix_sorted = [&d](const auto& map) {
    std::vector<std::pair<int64_t, double>> entries;
    entries.reserve(map.size());
    for (const auto& [k, v] : map) {
      entries.emplace_back(static_cast<int64_t>(k), v);
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [k, v] : entries) {
      d.Mix(static_cast<uint64_t>(k));
      d.MixDouble(v);
    }
  };
  mix_sorted(job_completion);
  mix_sorted(dc_completion);
  for (const auto& [server, t] : server_completion) {  // Already sorted.
    d.Mix(static_cast<uint64_t>(server));
    d.MixDouble(t);
  }
  {
    std::vector<std::pair<ServerId, ReplicaState::ServerOriginStats>> entries(
        origin_stats.begin(), origin_stats.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [server, s] : entries) {
      d.Mix(static_cast<uint64_t>(server));
      d.Mix(static_cast<uint64_t>(s.from_origin));
      d.Mix(static_cast<uint64_t>(s.total));
    }
  }
  d.Mix(static_cast<uint64_t>(faults.link_events));
  d.Mix(static_cast<uint64_t>(faults.flows_killed));
  d.Mix(static_cast<uint64_t>(faults.reports_lost));
  d.Mix(static_cast<uint64_t>(faults.reports_forced));
  d.Mix(static_cast<uint64_t>(faults.pushes_dropped));
  d.Mix(static_cast<uint64_t>(faults.pushes_escalated));
  d.Mix(static_cast<uint64_t>(faults.blocks_corrupted));
  // Mix presence separately from the value so "not measured" and a measured
  // 0.0 stay distinguishable. The telemetry snapshot is deliberately NOT
  // mixed: it contains wall-clock latency histograms.
  d.Mix(max_link_overshoot.has_value() ? 1 : 0);
  d.MixDouble(max_link_overshoot.value_or(0.0));
  return d.h;
}

BdsController::BdsController(const Topology* topo, const WanRoutingTable* routing,
                             ControllerOptions options)
    : topo_(topo),
      routing_(routing),
      options_(options),
      sim_(topo),
      state_(topo),
      fault_(options.seed ^ 0xFA017ULL),
      algorithm_(topo, routing, options.algorithm),
      separator_(topo, options.separation),
      agent_monitor_(topo, options.controller_dc, options.latency),
      network_monitor_(topo),
      replicas_(options.replication),
      fallback_(topo, routing, &sim_, &state_,
                [&options] {
                  DecentralizedEngine::Options o = options.fallback;
                  o.seed = options.seed ^ 0xFA11BACC;
                  return o;
                }()) {
  BDS_CHECK(topo != nullptr && routing != nullptr);
  sim_.SetCompletionCallback([this](const FlowRecord& r) { OnFlowComplete(r); });
  fallback_.SetDeliveryCallback([this](JobId job, int64_t block, ServerId src, ServerId dst) {
    MirrorDelivery(job, block, src, dst);
    RecordDelivery(job, dst, sim_.now());
  });
  fallback_.SetCorruptionHook(
      [this](JobId, int64_t) { return fault_.DrawBlockCorrupted(); });
  fallback_.Deactivate();
}

Status BdsController::SubmitJob(const MulticastJob& job) {
  BDS_RETURN_IF_ERROR(job.Validate(topo_->num_dcs()));
  arriving_jobs_.push_back(job);
  std::sort(arriving_jobs_.begin() + static_cast<long>(next_arrival_), arriving_jobs_.end(),
            [](const MulticastJob& a, const MulticastJob& b) {
              return a.arrival_time < b.arrival_time;
            });
  ++jobs_submitted_;
  return Status::Ok();
}

Status BdsController::ValidateFailureEvent(ServerId server, SimTime at, bool recovery) const {
  if (server < 0 || server >= topo_->num_servers()) {
    return InvalidArgumentError("failure script: no such server");
  }
  if (at < 0.0) {
    return InvalidArgumentError("failure script: event time is negative");
  }
  // Replay every already-scheduled event for this server up to `at` to find
  // whether it would be up or down when the new event fires.
  std::vector<std::pair<SimTime, bool>> events;  // (time, recovery)
  for (const ServerFailure& f : failures_) {
    if (f.server == server && f.at <= at + kFluidEpsilon) {
      events.emplace_back(f.at, f.recovery);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  bool down = false;
  for (const auto& [t, rec] : events) {
    down = !rec;
  }
  if (!recovery && down) {
    return FailedPreconditionError("failure script: server is already failed at that time");
  }
  if (recovery && !down) {
    return FailedPreconditionError(
        "failure script: recovery scheduled for a server that is not failed at that time");
  }
  return Status::Ok();
}

Status BdsController::ScheduleServerFailure(ServerId server, SimTime at) {
  BDS_RETURN_IF_ERROR(ValidateFailureEvent(server, at, /*recovery=*/false));
  failures_.push_back(ServerFailure{server, at, /*recovery=*/false});
  std::sort(failures_.begin() + static_cast<long>(next_failure_), failures_.end(),
            [](const ServerFailure& a, const ServerFailure& b) { return a.at < b.at; });
  return Status::Ok();
}

Status BdsController::ScheduleServerRecovery(ServerId server, SimTime at) {
  BDS_RETURN_IF_ERROR(ValidateFailureEvent(server, at, /*recovery=*/true));
  failures_.push_back(ServerFailure{server, at, /*recovery=*/true});
  std::sort(failures_.begin() + static_cast<long>(next_failure_), failures_.end(),
            [](const ServerFailure& a, const ServerFailure& b) { return a.at < b.at; });
  return Status::Ok();
}

Status BdsController::ScheduleControllerOutage(SimTime from, SimTime to) {
  if (from >= to) {
    return InvalidArgumentError("failure script: controller outage window is inverted");
  }
  if (from < 0.0) {
    return InvalidArgumentError("failure script: controller outage starts before t=0");
  }
  outages_.push_back(Outage{from, to});
  return Status::Ok();
}

Status BdsController::ScheduleReplicaFailure(int replica, SimTime at) {
  if (replica < 0 || replica >= replicas_.num_replicas()) {
    return InvalidArgumentError("failure script: no such controller replica");
  }
  if (at < 0.0) {
    return InvalidArgumentError("failure script: event time is negative");
  }
  replica_events_.push_back(ReplicaEvent{replica, at, /*recovery=*/false});
  std::sort(replica_events_.begin() + static_cast<long>(next_replica_event_),
            replica_events_.end(),
            [](const ReplicaEvent& a, const ReplicaEvent& b) { return a.at < b.at; });
  return Status::Ok();
}

Status BdsController::ScheduleReplicaRecovery(int replica, SimTime at) {
  if (replica < 0 || replica >= replicas_.num_replicas()) {
    return InvalidArgumentError("failure script: no such controller replica");
  }
  if (at < 0.0) {
    return InvalidArgumentError("failure script: event time is negative");
  }
  replica_events_.push_back(ReplicaEvent{replica, at, /*recovery=*/true});
  std::sort(replica_events_.begin() + static_cast<long>(next_replica_event_),
            replica_events_.end(),
            [](const ReplicaEvent& a, const ReplicaEvent& b) { return a.at < b.at; });
  return Status::Ok();
}

void BdsController::ApplyReplicaEvents(SimTime now) {
  while (next_replica_event_ < replica_events_.size() &&
         replica_events_[next_replica_event_].at <= now + kFluidEpsilon) {
    const ReplicaEvent& e = replica_events_[next_replica_event_];
    ++next_replica_event_;
    // Fail/recover are idempotent in the replica set, so a chaos plan that
    // fails an already-down replica is harmless.
    Status s = e.recovery ? replicas_.RecoverReplica(e.replica, e.at)
                          : replicas_.FailReplica(e.replica, e.at);
    BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
    if (e.recovery) {
      BDS_TELEMETRY_COUNT("controller.replica_recoveries", 1);
    } else {
      // A failing-over controller replica rebuilds its view from scratch;
      // cross-cycle caches keyed on the previous master's state must not
      // survive the handoff.
      algorithm_.InvalidateCycleCache();
      BDS_TELEMETRY_COUNT("controller.replica_failures", 1);
    }
  }
}

void BdsController::ConfigureOverload(const OverloadOptions& options) {
  OverloadOptions o = options;
  // Pricing knobs must match what actually runs, so they come from the
  // algorithm options regardless of what the caller filled in.
  o.cycle_length = options_.algorithm.cycle_length;
  o.max_wan_routes = options_.algorithm.max_wan_routes;
  o.fptas_epsilon = options_.algorithm.fptas_epsilon;
  o.degraded_epsilon_factor = options_.algorithm.degraded_epsilon_factor;
  watchdog_ = CycleWatchdog(o);
}

void BdsController::ConfigureAdmission(const AdmissionOptions& options) {
  admission_ = AdmissionController(options);
}

Status BdsController::ConfigureTimeseries(const telemetry::TimeseriesOptions& options) {
  BDS_RETURN_IF_ERROR(telemetry::ValidateTimeseriesOptions(options));
  if (!options.enabled) {
    timeseries_.reset();
    timeseries_links_.clear();
    return Status::Ok();
  }
  timeseries_ = std::make_unique<telemetry::SloTimeseries>(options);
  // Track the highest-capacity WAN links (tie-break by id so the selection
  // is deterministic), reported in ascending-id order.
  std::vector<std::pair<Rate, LinkId>> wan;
  for (LinkId l = 0; l < topo_->num_links(); ++l) {
    if (topo_->link(l).type == LinkType::kWan) {
      wan.emplace_back(-topo_->link(l).capacity, l);
    }
  }
  std::sort(wan.begin(), wan.end());
  std::vector<LinkId> tracked;
  for (const auto& [neg_cap, l] : wan) {
    if (static_cast<int>(tracked.size()) >= options.max_tracked_links) {
      break;
    }
    tracked.push_back(l);
  }
  std::sort(tracked.begin(), tracked.end());
  timeseries_->SetTrackedLinks(tracked);
  timeseries_links_ = timeseries_->tracked_links();
  ts_select_cpu_ = 0.0;
  ts_solve_cpu_ = 0.0;
  ts_merge_cpu_ = 0.0;
  return Status::Ok();
}

void BdsController::ConfigureRetirement(bool retire_completed, int64_t max_cycle_stats) {
  retire_completed_ = retire_completed;
  max_cycle_stats_ = max_cycle_stats;
}

void BdsController::SetArrivalProcess(ArrivalProcess* arrivals, SimTime stop_time) {
  open_arrivals_ = arrivals;
  arrivals_stop_ = stop_time;
}

void BdsController::SetBackgroundTraffic(BackgroundTrafficModel* model) {
  network_monitor_.SetTrafficModel(model);
}

void BdsController::AdmitJobNow(const MulticastJob& job) {
  {
    telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
    if (fr.active()) {
      fr.Arrival(job.id, sim_.now(), job.source_dc, static_cast<int>(job.dest_dcs.size()),
                 job.num_blocks(), job.total_bytes);
    }
  }
  Status s = state_.AddJob(job);
  BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
  if (view_ != nullptr) {
    // Job submission goes through the controller, so the view learns of
    // new jobs immediately — only delivery reports can go stale.
    Status vs = view_->AddJob(job);
    BDS_CHECK_MSG(vs.ok(), vs.ToString().c_str());
  }
  // Track participating DCs for feedback-delay sampling.
  auto note_dc = [this](DcId d) {
    if (std::find(active_agent_dcs_.begin(), active_agent_dcs_.end(), d) ==
        active_agent_dcs_.end()) {
      active_agent_dcs_.push_back(d);
    }
  };
  note_dc(job.source_dc);
  for (DcId d : job.dest_dcs) {
    note_dc(d);
  }
}

int64_t BdsController::JobDeliveries(const MulticastJob& job) const {
  return job.num_blocks() * static_cast<int64_t>(job.dest_dcs.size());
}

bool BdsController::RegisterOpenArrivals(SimTime now) {
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
  bool added = false;
  // Re-offer deferred jobs first, FIFO: stop at the first still-deferred so
  // admission order is preserved.
  while (!deferred_jobs_.empty()) {
    const int64_t jd = JobDeliveries(deferred_jobs_.front());
    // The front job's own demand is part of deferred_deliveries_; the
    // backlog it would join excludes it.
    const int64_t backlog = state_.num_pending() + deferred_deliveries_ - jd;
    if (admission_.ReofferDeferred(jd, backlog) != AdmissionDecision::kAccept) {
      break;
    }
    admission_.CountAccepted();
    if (fr.active()) {
      fr.AdmissionVerdict(deferred_jobs_.front().id, now, "accept", admission_.last_reason(),
                          backlog);
    }
    deferred_deliveries_ -= jd;
    MulticastJob job = std::move(deferred_jobs_.front());
    deferred_jobs_.pop_front();
    AdmitJobNow(job);
    added = true;
  }
  if (open_arrivals_ == nullptr) {
    return added;
  }
  while (open_arrivals_->NextArrivalTime() <= now + kFluidEpsilon &&
         open_arrivals_->NextArrivalTime() < arrivals_stop_) {
    MulticastJob job = open_arrivals_->Take();
    const int64_t jd = JobDeliveries(job);
    const int64_t backlog = state_.num_pending() + deferred_deliveries_;
    switch (admission_.Admit(jd, backlog)) {
      case AdmissionDecision::kAccept:
        if (fr.active()) {
          fr.AdmissionVerdict(job.id, now, "accept", admission_.last_reason(), backlog);
        }
        AdmitJobNow(job);
        added = true;
        break;
      case AdmissionDecision::kDefer:
        if (static_cast<int64_t>(deferred_jobs_.size()) <
            admission_.options().max_deferred_jobs) {
          admission_.CountDeferred();
          if (fr.active()) {
            fr.AdmissionVerdict(job.id, now, "defer", admission_.last_reason(), backlog);
          }
          deferred_deliveries_ += jd;
          deferred_jobs_.push_back(std::move(job));
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

void BdsController::RegisterArrivals(SimTime now) {
  bool added = false;
  while (next_arrival_ < arriving_jobs_.size() &&
         arriving_jobs_[next_arrival_].arrival_time <= now + kFluidEpsilon) {
    AdmitJobNow(arriving_jobs_[next_arrival_]);
    ++next_arrival_;
    added = true;
  }
  // In bounded-memory mode the consumed script prefix is dead weight; shed
  // it once it is large enough to matter.
  if (retire_completed_ && next_arrival_ > 1024) {
    arriving_jobs_.erase(arriving_jobs_.begin(),
                         arriving_jobs_.begin() + static_cast<long>(next_arrival_));
    next_arrival_ = 0;
  }
  added |= RegisterOpenArrivals(now);
  if (added && fallback_.active()) {
    fallback_.Activate();  // Refresh queues with the new job's deliveries.
  }
}

void BdsController::ApplyFailures(SimTime now) {
  while (next_failure_ < failures_.size() && failures_[next_failure_].at <= now + kFluidEpsilon) {
    ServerId server = failures_[next_failure_].server;
    bool recovery = failures_[next_failure_].recovery;
    ++next_failure_;
    if (recovery) {
      state_.RestoreServer(server);
      if (view_ != nullptr) {
        view_->RestoreServer(server);
      }
      if (fallback_.active()) {
        fallback_.Activate();  // Pick up the restored server's owed shards.
      }
      continue;
    }
    state_.RemoveServer(server);
    // Server loss re-owes deliveries and shrinks holder sets mid-stream;
    // the dirty stamps handle the candidate side, but the FPTAS warm seeds
    // may reference flows toward the dead server — drop both caches.
    algorithm_.InvalidateCycleCache();
    if (view_ != nullptr) {
      // Failures are detected by the controller's own heartbeats, not agent
      // status reports, so the view mirrors them instantly. Buffered delivery
      // reports TO the failed server must die with it: flushing them later
      // would mark re-owed blocks present in the view and starve them.
      view_->RemoveServer(server);
      for (auto& [dc, pending] : unreported_) {
        pending.erase(std::remove_if(pending.begin(), pending.end(),
                                     [server](const PendingReport& r) { return r.dst == server; }),
                      pending.end());
      }
    }
    fallback_.HandleServerFailure(server);
    // Cancel centralized transfers touching the failed server; their
    // deliveries go back to pending via the replica state.
    std::vector<int64_t> doomed;
    for (const auto& [tag, t] : transfers_) {
      if (t.assignment.src_server == server || t.assignment.dst_server == server) {
        doomed.push_back(tag);
      }
    }
    std::sort(doomed.begin(), doomed.end());  // Map order is incidental.
    telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
    for (int64_t tag : doomed) {
      CtrlTransfer t = transfers_[tag];
      transfers_.erase(tag);
      if (fr.active()) {
        fr.FaultHit(t.assignment.job, now, "server_failure", static_cast<int64_t>(server));
        fr.Cancel(t.assignment.job, now, "server_failure", /*credited_blocks=*/0);
      }
      (void)sim_.CancelFlow(t.flow);
      for (int64_t b : t.assignment.blocks) {
        in_flight_.erase(DeliveryKey{t.assignment.job, b, t.dest_dc});
      }
    }
  }
}

bool BdsController::ControllerUp(SimTime now) {
  for (const Outage& o : outages_) {
    if (now >= o.from - kFluidEpsilon && now < o.to - kFluidEpsilon) {
      return false;
    }
  }
  return replicas_.HasMaster(now);
}

void BdsController::ApplyLinkFaults(SimTime now) {
  for (const LinkFaultEvent& e : fault_.TakeLinkEventsUpTo(now)) {
    Status s = sim_.SetLinkFaultFactor(e.link, e.factor);
    BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
    telemetry::TraceInstant("fault.link", "fault",
                            {{"link", static_cast<double>(e.link)}, {"factor", e.factor}});
    // Conservative: any fault event may change which routes are usable, so
    // drop the cached overlay-path skeletons. Rebuild is a handful of small
    // copies per active DC pair — cheap next to re-planning the transfers.
    algorithm_.InvalidatePathCache();
    if (e.factor > 0.0) {
      continue;  // Degradations and recoveries just change capacity; the
                 // allocator throttles (or refills) crossing flows in place.
    }
    // Hard down: every transfer crossing the link dies now. Centralized
    // transfers are cancelled-and-credited so fully-arrived blocks survive;
    // their remaining blocks return to pending and the next cycle re-plans
    // them over surviving paths. Fallback downloads requeue immediately.
    std::vector<int64_t> doomed;
    for (const auto& [tag, t] : transfers_) {
      auto flow = sim_.FindFlow(t.flow);
      if (!flow) {
        continue;
      }
      if (flow->Crosses(e.link)) {
        doomed.push_back(tag);
      }
    }
    std::sort(doomed.begin(), doomed.end());  // Map order is incidental.
    telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
    for (int64_t tag : doomed) {
      if (fr.active()) {
        auto it = transfers_.find(tag);
        if (it != transfers_.end()) {
          fr.FaultHit(it->second.assignment.job, now, "link_down", static_cast<int64_t>(e.link));
        }
      }
      CancelAndCredit(tag, "link_down");
    }
    fault_.mutable_stats().flows_killed +=
        static_cast<int64_t>(doomed.size()) + fallback_.HandleLinkFault(e.link);
    BDS_TELEMETRY_COUNT("fault.flows_killed", static_cast<int64_t>(doomed.size()));
  }
}

void BdsController::CollectAgentReports() {
  if (view_ == nullptr) {
    return;
  }
  // Deterministic draw order: agents report in DC order. A lost report keeps
  // its DC's deliveries buffered, so the view keeps scheduling against the
  // last state that DC successfully reported.
  std::vector<DcId> dcs;
  dcs.reserve(unreported_.size());
  for (const auto& [dc, pending] : unreported_) {
    if (!pending.empty()) {
      dcs.push_back(dc);
    }
  }
  std::sort(dcs.begin(), dcs.end());
  for (DcId dc : dcs) {
    if (fault_.DrawReportLost(dc)) {
      continue;
    }
    std::vector<PendingReport>& pending = unreported_[dc];
    for (const PendingReport& r : pending) {
      (void)view_->NoteDelivery(r.job, r.block, r.src, r.dst);
    }
    pending.clear();
  }
}

void BdsController::MirrorDelivery(JobId job, int64_t block, ServerId src, ServerId dst) {
  if (view_ == nullptr) {
    return;
  }
  unreported_[topo_->server(dst).dc].push_back(PendingReport{job, block, src, dst});
}

void BdsController::CancelAndCredit(int64_t tag, const char* reason) {
  auto it = transfers_.find(tag);
  if (it == transfers_.end()) {
    return;
  }
  CtrlTransfer t = std::move(it->second);
  transfers_.erase(it);
  BDS_TELEMETRY_COUNT("controller.transfers_cancelled", 1);
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
  auto delivered = sim_.CancelFlow(t.flow);
  Bytes delivered_bytes = delivered.ok() ? *delivered : 0.0;
  Bytes per_block = t.assignment.bytes / static_cast<double>(t.assignment.blocks.size());
  int64_t full_blocks =
      per_block > 0.0
          ? static_cast<int64_t>(delivered_bytes / per_block + kFluidEpsilon)
          : 0;
  full_blocks = std::min(full_blocks, static_cast<int64_t>(t.assignment.blocks.size()));
  if (fr.active()) {
    fr.Cancel(t.assignment.job, sim_.now(), reason, full_blocks);
  }
  int64_t before = state_.total_credited();
  for (size_t i = 0; i < t.assignment.blocks.size(); ++i) {
    int64_t b = t.assignment.blocks[i];
    in_flight_.erase(DeliveryKey{t.assignment.job, b, t.dest_dc});
    if (static_cast<int64_t>(i) < full_blocks) {
      // Blocks are streamed in order within a merged transfer; the first
      // `full_blocks` have fully arrived — each is checksum-verified before
      // it is credited.
      if (fault_.DrawBlockCorrupted()) {
        if (fr.active()) {
          fr.FaultHit(t.assignment.job, sim_.now(), "block_corrupted", b);
        }
        continue;  // Not credited; stays pending and is rescheduled.
      }
      (void)state_.NoteDelivery(t.assignment.job, b, t.assignment.src_server,
                                t.assignment.dst_server);
      MirrorDelivery(t.assignment.job, b, t.assignment.src_server, t.assignment.dst_server);
    }
  }
  if (state_.total_credited() > before) {
    RecordDelivery(t.assignment.job, t.assignment.dst_server, sim_.now());
  }
}

SimTime BdsController::RunCentralizedCycle(SimTime now, CycleStats& stats) {
  stats.rung = static_cast<int>(watchdog_.rung());

  // Flush agent status reports (some may be lost, leaving the view stale).
  CollectAgentReports();

  // Last rung of the degradation ladder: skip scheduling and routing
  // entirely and let the previous cycle's decisions keep running (they are
  // rate-pinned, so extending them costs nothing). Only the base cost is
  // charged, which is what lets the ladder recover.
  if (watchdog_.enabled() && watchdog_.rung() == DegradationRung::kExtendDecisions) {
    const double cost = watchdog_.ModelCost(0, 0, 0);
    stats.modeled_cost_seconds = cost;
    algorithm_.SetDegradationRung(watchdog_.Observe(stats.cycle, cost));
    BDS_TELEMETRY_COUNT("controller.cycles_extended", 1);
    return 0.0;
  }

  // Decision refresh: re-plan transfers that will not finish in a
  // reasonable number of cycles at their current rate.
  const double horizon = options_.restall_cycles * options_.algorithm.cycle_length;
  std::vector<int64_t> stalled;
  for (const auto& [tag, t] : transfers_) {
    auto flow = sim_.FindFlow(t.flow);
    if (!flow) {
      stalled.push_back(tag);  // Flow vanished; clean up bookkeeping.
      continue;
    }
    if (flow->current_rate <= kFluidEpsilon ||
        flow->RemainingAt(sim_.now()) / flow->current_rate > horizon) {
      stalled.push_back(tag);
    }
  }
  for (int64_t tag : stalled) {
    CancelAndCredit(tag, "stalled");
  }

  // (1) + (3): agent states and network statistics.
  std::vector<Rate> online = network_monitor_.OnlineRates(now);
  // Also steer the simulator's background load so the data plane and the
  // monitor agree on what the latency-sensitive traffic consumes.
  for (LinkId l = 0; l < topo_->num_links(); ++l) {
    if (topo_->link(l).type == LinkType::kWan) {
      (void)sim_.SetBackgroundRate(l, online[static_cast<size_t>(l)]);
    }
  }
  // Residual capacities honour injected link faults: a degraded or dead
  // link's usable capacity shrinks by its fault factor before the safety
  // threshold applies, so the LP routes around it.
  std::vector<Rate> residual = separator_.ResidualCapacities(online, sim_.link_fault_factors());
  // Non-blocking update: in-flight transfers keep their bandwidth, but only
  // for the fraction of the coming cycle they will still be running (agents
  // report per-flow progress, so the controller knows the remaining time).
  for (const auto& [tag, t] : transfers_) {
    auto flow = sim_.FindFlow(t.flow);
    double fraction = 1.0;
    if (flow && flow->current_rate > 0.0) {
      double remaining_seconds = flow->RemainingAt(sim_.now()) / flow->current_rate;
      fraction = std::min(1.0, remaining_seconds / options_.algorithm.cycle_length);
    }
    for (LinkId l : t.assignment.path.links) {
      Rate& r = residual[static_cast<size_t>(l)];
      // WAN links subtract the full in-flight rate: the safety threshold and
      // the bulk cap are hard guarantees (§5.2), so overlapping a straggler
      // with a full new allocation must never push a WAN link over. Server
      // NICs only lose the fraction of the cycle the straggler still needs.
      double f = topo_->link(l).type == LinkType::kWan ? 1.0 : fraction;
      r = std::max(0.0, r - t.assignment.rate * f);
    }
  }

  // (4): the decision algorithm — runs on the controller's possibly-stale
  // view when report loss is enabled. A stale view only ever has MORE
  // pending deliveries than ground truth (reports lag, submissions do not),
  // so the worst case is a redundant transfer that NoteDelivery ignores.
  const ReplicaState& sched_state = view_ != nullptr ? *view_ : state_;
  const int64_t pending_before = sched_state.num_pending();
  CycleDecision decision = algorithm_.Decide(stats.cycle, sched_state, residual, in_flight_);
  BDS_TELEMETRY_COUNT("controller.blocks_scheduled", decision.scheduled_blocks);
  BDS_TELEMETRY_COUNT("controller.merged_subtasks", decision.merged_subtasks);
  // Cross-cycle incrementality observability (DESIGN.md §9.7): how much of
  // this cycle's candidate array was reused vs repriced, per cycle, in the
  // trace. The per-process totals land on the scheduler.cand_* counters.
  telemetry::TraceInstant(
      "scheduler.cand_reuse", "scheduler",
      {{"units_reused", static_cast<double>(decision.cand_units_reused)},
       {"units_repriced", static_cast<double>(decision.cand_units_repriced)},
       {"slots_reused", static_cast<double>(decision.cand_slots_reused)},
       {"phases_skipped", static_cast<double>(decision.fptas_phases_skipped)}});
  stats.scheduled_blocks = decision.scheduled_blocks;
  stats.merged_subtasks = decision.merged_subtasks;
  stats.scheduling_seconds = decision.scheduling_seconds;
  stats.routing_seconds = decision.routing_seconds;
  if (timeseries_ != nullptr) {
    // Cumulative wall-CPU per stage; the sampler diffs these itself.
    ts_select_cpu_ += decision.select_cpu_seconds;
    ts_solve_cpu_ += decision.solve_cpu_seconds;
    ts_merge_cpu_ += decision.merge_cpu_seconds;
  }
  if ((options_.measure_delays || options_.model_decision_latency) &&
      !active_agent_dcs_.empty()) {
    stats.feedback_delay =
        agent_monitor_.SampleFeedbackLoop(active_agent_dcs_, decision.total_seconds());
  }
  // Cycle-deadline watchdog: price the cycle with the deterministic cost
  // model and convert any overrun into decision staleness — the decisions
  // reach agents late.
  double cycle_cost = 0.0;
  if (watchdog_.enabled()) {
    cycle_cost = watchdog_.ModelCost(pending_before, decision.scheduled_blocks,
                                     decision.merged_subtasks);
    stats.modeled_cost_seconds = cycle_cost;
  }

  // The decisions only reach the agents after the feedback loop completes
  // (and, under overload, after the overrunning computation finishes);
  // in-flight transfers keep running meanwhile (non-blocking update).
  SimTime lead = 0.0;
  if (options_.model_decision_latency && stats.feedback_delay > 0.0) {
    lead = std::min(stats.feedback_delay, options_.algorithm.cycle_length * 0.9);
  }
  if (watchdog_.enabled()) {
    lead = std::max(lead, watchdog_.StalenessFor(cycle_cost));
  }
  if (lead > 0.0) {
    Status s = sim_.AdvanceBy(lead);
    BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
  }

  // (5): push decisions — agents start rate-limited transfers. A dropped
  // push loses every assignment to that destination agent this cycle (one
  // draw per agent, consistent across its assignments); the blocks stay
  // pending and are rescheduled until the agent's retry/backoff escalates
  // out-of-band (§5.3) and the push is forced through.
  std::vector<std::pair<ServerId, bool>> push_plan;
  auto push_dropped = [&](ServerId dst) {
    for (const auto& [s, drop] : push_plan) {
      if (s == dst) {
        return drop;
      }
    }
    bool drop = fault_.DrawPushDropped(dst);
    push_plan.emplace_back(dst, drop);
    return drop;
  };
  // The cycle's flow starts only mark links dirty; the next time advance
  // runs one reallocation pass over the union of dirty components.
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
  const bool fr_on = fr.active();
  const char* rung_name = DegradationRungName(static_cast<DegradationRung>(stats.rung));
  for (TransferAssignment& a : decision.transfers) {
    if (push_dropped(a.dst_server)) {
      continue;
    }
    DcId dest_dc = topo_->server(a.dst_server).dc;
    int64_t tag = next_tag_++;
    auto flow = sim_.StartFlow(a.path.links, a.bytes, a.rate, tag, /*tag2=*/0);
    if (!flow.ok()) {
      continue;  // Skip unstartable transfers; they stay pending.
    }
    for (int64_t b : a.blocks) {
      in_flight_.insert(DeliveryKey{a.job, b, dest_dc});
    }
    if (fr_on) {
      fr.Schedule(a.job, sim_.now(), stats.cycle, rung_name, a.src_server, a.dst_server, a.rate,
                  static_cast<int64_t>(a.blocks.size()));
    }
    transfers_.emplace(tag, CtrlTransfer{std::move(a), dest_dc, *flow});
    ++stats.transfers_started;
  }
  BDS_TELEMETRY_COUNT("controller.transfers_started", stats.transfers_started);
  if (watchdog_.enabled()) {
    // Fold the cycle into the ladder and set the rung the NEXT cycle runs at.
    algorithm_.SetDegradationRung(watchdog_.Observe(stats.cycle, cycle_cost));
  }
  return lead;
}

void BdsController::RecordDelivery(JobId job, ServerId dest_server, SimTime now) {
  ++deliveries_;
  ++deliveries_this_cycle_;
  server_last_delivery_[dest_server] = now;
  if (job_completion_.count(job) == 0 && state_.JobComplete(job)) {
    job_completion_[job] = now;
    ++jobs_completed_total_;
    const MulticastJob* mj = state_.FindJob(job);
    const double duration = now - (mj != nullptr ? mj->arrival_time : 0.0);
    {
      telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
      if (fr.active()) {
        fr.Completion(job, now, duration);
      }
      if (timeseries_ != nullptr) {
        timeseries_->ObserveCompletion(now, duration);
      }
    }
    completion_durations_.Add(duration);
    completion_digest_ = MixU64(completion_digest_, static_cast<uint64_t>(job));
    completion_digest_ = MixDoubleU64(completion_digest_, duration);
    BDS_TELEMETRY_HISTOGRAM("controller.job_completion_minutes", 0.0, 240.0, 96,
                            ToMinutes(duration));
    if (retire_completed_) {
      retirable_.push_back(job);
    }
  }
}

void BdsController::RetireCompleted() {
  if (retirable_.empty()) {
    return;
  }
  size_t keep = 0;
  for (JobId job : retirable_) {
    // A server failure can re-owe a recorded-complete job; retry once it
    // completes again. The stale view can also lag the job's completion —
    // retiring it from ground truth but not the view would leave the view
    // scheduling phantom deliveries forever, so wait for both to agree.
    if (!state_.JobComplete(job) || (view_ != nullptr && !view_->JobComplete(job))) {
      retirable_[keep++] = job;
      continue;
    }
    Status s = state_.RetireJob(job);
    BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
    if (view_ != nullptr) {
      Status vs = view_->RetireJob(job);
      BDS_CHECK_MSG(vs.ok(), vs.ToString().c_str());
    }
    {
      telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
      if (fr.active()) {
        fr.Retire(job, sim_.now());
      }
    }
    job_completion_.erase(job);
  }
  retirable_.resize(keep);
}

void BdsController::OnFlowComplete(const FlowRecord& record) {
  if (fallback_.OnFlowComplete(record)) {
    return;  // Decentralized-engine flow; its callback updated our stats.
  }
  if (record.tag2 != 0) {
    return;  // Not ours (e.g. a client-injected flow).
  }
  auto it = transfers_.find(record.tag);
  if (it == transfers_.end()) {
    return;
  }
  CtrlTransfer t = std::move(it->second);
  transfers_.erase(it);
  int64_t before = state_.total_credited();
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
  for (int64_t b : t.assignment.blocks) {
    in_flight_.erase(DeliveryKey{t.assignment.job, b, t.dest_dc});
    if (fault_.DrawBlockCorrupted()) {
      if (fr.active()) {
        fr.FaultHit(t.assignment.job, sim_.now(), "block_corrupted", b);
      }
      continue;  // Failed checksum verification: stays pending, rescheduled.
    }
    (void)state_.NoteDelivery(t.assignment.job, b, t.assignment.src_server,
                              t.assignment.dst_server);
    MirrorDelivery(t.assignment.job, b, t.assignment.src_server, t.assignment.dst_server);
  }
  // Count the completion only when at least one block was newly credited:
  // a transfer the stale view scheduled redundantly delivers nothing new.
  if (state_.total_credited() > before) {
    RecordDelivery(t.assignment.job, t.assignment.dst_server, sim_.now());
  }
}

StatusOr<RunReport> BdsController::Run(SimTime deadline) {
  RunReport report;
  const SimTime dt = options_.algorithm.cycle_length;
  int64_t cycle = 0;
  // Hard stop: generous bound so that a wedged configuration cannot spin.
  const int64_t max_cycles = 10'000'000;

  // Scope the report's telemetry to this run: everything before Run() (other
  // runs in the same process, registration warm-up) is subtracted out.
  telemetry::MetricsSnapshot telemetry_at_entry;
  if (telemetry::Enabled()) {
    telemetry_at_entry = telemetry::MetricsRegistry::Global().Snapshot();
  }

  // Flow-rate changepoints for the flight recorder: the simulator calls the
  // observer from the single rate-assignment site, pre-filtered by relative
  // change, so the recorder only sees material reallocations of centralized
  // transfers. Observing never mutates simulation state.
  if (telemetry::FlightRecorder::Global().active()) {
    sim_.SetRateObserver(
        [this](int64_t tag, int64_t tag2, SimTime t, Rate old_rate, Rate new_rate) {
          if (!telemetry::FlightRecorder::Global().WantsRateEvents()) {
            return false;  // Budget spent: the simulator drops the observer.
          }
          if (tag2 != 0) {
            return true;  // Fallback/background flows are not journaled transfers.
          }
          auto it = transfers_.find(tag);
          if (it == transfers_.end()) {
            return true;
          }
          telemetry::FlightRecorder::Global().RateChange(it->second.assignment.job, t, old_rate,
                                                         new_rate);
          return true;
        },
        telemetry::FlightRecorder::Global().options().min_relative_rate_change);
  }

  if (fault_.stale_reports_enabled() && view_ == nullptr) {
    // Jobs submitted before Run() register inside the loop, so a view
    // created here sees every job. The view starts identical to ground
    // truth and lags only in deliveries whose reports were lost.
    view_ = std::make_unique<ReplicaState>(topo_);
  }

  StopReason stop = StopReason::kAborted;  // Overwritten by every break below.
  while (cycle < max_cycles) {
    SimTime now = sim_.now();
    if (now >= deadline - kFluidEpsilon) {
      stop = StopReason::kDeadline;
      break;
    }
    BDS_TIMED_SCOPE("controller.cycle");
    RegisterArrivals(now);
    ApplyFailures(now);
    ApplyReplicaEvents(now);
    ApplyLinkFaults(now);
    const bool had_backlog = state_.num_pending() > 0;

    CycleStats stats;
    stats.cycle = cycle;
    stats.start_time = now;
    stats.controller_up = ControllerUp(now);
    deliveries_this_cycle_ = 0;

    SimTime lead = 0.0;
    if (stats.controller_up) {
      if (fallback_was_active_) {
        fallback_.Deactivate();
        fallback_was_active_ = false;
      }
      lead = RunCentralizedCycle(now, stats);
    } else {
      if (!fallback_was_active_) {
        fallback_.Activate();
        fallback_was_active_ = true;
      } else {
        fallback_.Tick();  // Retry stalled receivers each cycle.
      }
    }

    BDS_RETURN_IF_ERROR(sim_.AdvanceBy(std::max(0.0, std::min(dt, deadline - now) - lead)));
    stats.blocks_delivered = deliveries_this_cycle_;
    admission_.ObserveCycle(deliveries_this_cycle_, had_backlog);
    if (timeseries_ != nullptr) {
      telemetry::SloSampleInput in;
      in.active_flows = static_cast<int64_t>(sim_.num_active_flows());
      in.pending_blocks = state_.num_pending();
      in.rung = stats.rung;
      const AdmissionStats& as = admission_.stats();
      in.offered = as.offered;
      in.accepted = as.accepted;
      in.rejected = as.rejected;
      in.deferred = as.deferred;
      in.select_cpu_seconds = ts_select_cpu_;
      in.solve_cpu_seconds = ts_solve_cpu_;
      in.merge_cpu_seconds = ts_merge_cpu_;
      in.link_utilization.reserve(timeseries_links_.size());
      for (LinkId l : timeseries_links_) {
        in.link_utilization.push_back(sim_.LinkUtilization(l));
      }
      timeseries_->SampleUpTo(sim_.now(), in);
    }
    if (options_.validate_invariants) {
      double overshoot = sim_.MaxCapacityViolation();
      report.max_link_overshoot =
          std::max(report.max_link_overshoot.value_or(overshoot), overshoot);
    }
    if (retire_completed_) {
      RetireCompleted();
    }
    peak_live_pending_ = std::max(peak_live_pending_, state_.num_pending());
    peak_live_jobs_ = std::max(peak_live_jobs_, state_.num_live_jobs());
    peak_live_flows_ =
        std::max(peak_live_flows_, static_cast<int64_t>(sim_.num_active_flows()));
    BDS_TELEMETRY_COUNT("controller.cycles", 1);
    BDS_TELEMETRY_COUNT("controller.blocks_delivered", stats.blocks_delivered);
    BDS_TELEMETRY_GAUGE("controller.live_pending", static_cast<double>(state_.num_pending()));
    BDS_TELEMETRY_GAUGE("controller.degradation_rung", static_cast<double>(stats.rung));
    telemetry::TraceInstant(
        "controller.cycle.stats", "controller",
        {{"cycle", static_cast<double>(stats.cycle)},
         {"scheduled_blocks", static_cast<double>(stats.scheduled_blocks)},
         {"transfers_started", static_cast<double>(stats.transfers_started)},
         {"blocks_delivered", static_cast<double>(stats.blocks_delivered)}});
    cycles_digest_ = MixCycle(cycles_digest_, stats);
    ++total_cycles_;
    report.cycles.push_back(stats);
    if (max_cycle_stats_ > 0 &&
        static_cast<int64_t>(report.cycles.size()) > max_cycle_stats_ + max_cycle_stats_ / 2) {
      report.cycles.erase(report.cycles.begin(),
                          report.cycles.end() - static_cast<long>(max_cycle_stats_));
    }
    ++cycle;

    const bool all_arrived =
        next_arrival_ >= arriving_jobs_.size() &&
        (open_arrivals_ == nullptr || open_arrivals_->NextArrivalTime() >= arrivals_stop_) &&
        deferred_jobs_.empty();
    if (all_arrived && state_.AllComplete()) {
      stop = StopReason::kDrained;
      break;
    }
    // Catch wedged runs: nothing pending can ever complete (e.g. every
    // holder failed). Stop rather than spin to the deadline. A pending link
    // recovery or probabilistic control-plane fault can still unwedge a
    // quiet cycle, so the detector defers to the deadline while either is
    // in play. A degraded cycle is never proof of wedge either: rungs above
    // kNormal deliberately restrict routing (one cached path, shed
    // candidates, or no decision at all), so a quiet cycle there may just
    // mean the restricted plan found nothing — wait for the ladder to
    // recover to kNormal before declaring the run dead.
    if (all_arrived && !state_.AllComplete() && sim_.num_active_flows() == 0 &&
        stats.controller_up && stats.transfers_started == 0 && stats.blocks_delivered == 0 &&
        watchdog_.rung() == DegradationRung::kNormal &&
        next_failure_ >= failures_.size() &&
        next_replica_event_ >= replica_events_.size() &&
        fault_.remaining_link_events() == 0 && !fault_.control_plane_active()) {
      bool outage_ahead = false;
      for (const Outage& o : outages_) {
        if (o.from > now) {
          outage_ahead = true;
        }
      }
      if (!outage_ahead) {
        stop = StopReason::kWedged;
        break;
      }
    }
  }

  const bool sources_drained =
      next_arrival_ >= arriving_jobs_.size() &&
      (open_arrivals_ == nullptr || open_arrivals_->NextArrivalTime() >= arrivals_stop_) &&
      deferred_jobs_.empty();
  report.completed = state_.AllComplete() && sources_drained;
  report.stop_reason = stop;
  report.total_cycles = total_cycles_;
  report.cycles_digest = cycles_digest_;
  report.jobs_completed_total = jobs_completed_total_;
  report.completion_digest = completion_digest_;
  report.retired_jobs = state_.retired_jobs();
  report.retired_blocks = state_.retired_blocks();
  report.peak_live_pending = peak_live_pending_;
  report.peak_live_jobs = peak_live_jobs_;
  report.peak_live_flows = peak_live_flows_;
  report.job_durations = completion_durations_;
  if (!completion_durations_.empty()) {
    report.completion_p50 = completion_durations_.Quantile(0.5);
    report.completion_p95 = completion_durations_.Quantile(0.95);
    report.completion_p99 = completion_durations_.Quantile(0.99);
  }
  report.deliveries = deliveries_;
  report.faults = fault_.stats();
  report.job_completion = job_completion_;
  report.origin_stats = state_.origin_stats();
  report.control_delays = agent_monitor_.one_way_delays();
  report.feedback_delays = agent_monitor_.feedback_delays();

  SimTime latest = 0.0;
  std::unordered_map<DcId, SimTime> dc_latest;
  for (ServerId s : state_.AllDestinationServers()) {
    auto it = server_last_delivery_.find(s);
    SimTime t = it == server_last_delivery_.end() ? 0.0 : it->second;
    if (state_.OwedByServer(s) == 0) {
      report.server_completion.emplace_back(s, t);
      DcId dc = topo_->server(s).dc;
      dc_latest[dc] = std::max(dc_latest[dc], t);
      latest = std::max(latest, t);
    }
  }
  std::sort(report.server_completion.begin(), report.server_completion.end());
  report.dc_completion = std::move(dc_latest);
  report.completion_time = report.completed ? latest : sim_.now();
  if (telemetry::Enabled()) {
    report.telemetry =
        telemetry::MetricsRegistry::Global().Snapshot().DiffSince(telemetry_at_entry);
  }
  return report;
}

}  // namespace bds
