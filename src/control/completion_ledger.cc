#include "src/control/completion_ledger.h"

#include "src/common/digest.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace bds {

CompletionLedger::CompletionLedger(const Topology* topo, ReplicaState* state,
                                   FaultInjector* fault)
    : topo_(topo), state_(state), fault_(fault) {
  report_.cycles_digest = Digest{}.h;
  report_.completion_digest = Digest{}.h;
}

void CompletionLedger::Open(int64_t tag, CtrlTransfer transfer) {
  for (int64_t b : transfer.assignment.blocks) {
    in_flight_.insert(DeliveryKey{transfer.assignment.job, b, transfer.dest_dc});
  }
  transfers_.emplace(tag, std::move(transfer));
}

std::optional<CtrlTransfer> CompletionLedger::Close(int64_t tag) {
  auto it = transfers_.find(tag);
  if (it == transfers_.end()) {
    return std::nullopt;
  }
  std::optional<CtrlTransfer> t(std::move(it->second));
  transfers_.erase(it);
  return t;
}

void CompletionLedger::Credit(const CtrlTransfer& t, size_t full_blocks, SimTime now) {
  const TransferAssignment& a = t.assignment;
  const int64_t before = state_->total_credited();
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
  for (size_t i = 0; i < a.blocks.size(); ++i) {
    const int64_t b = a.blocks[i];
    in_flight_.erase(DeliveryKey{a.job, b, t.dest_dc});
    if (i >= full_blocks) {
      continue;
    }
    if (fault_->DrawBlockCorrupted()) {
      if (fr.active()) {
        fr.FaultHit(a.job, now, "block_corrupted", b);
      }
      continue;  // Failed checksum verification: stays pending, rescheduled.
    }
    (void)state_->NoteDelivery(a.job, b, a.src_server, a.dst_server);
    BufferReport(a.job, b, a.src_server, a.dst_server);
  }
  if (state_->total_credited() > before) {
    RecordDelivery(a.job, a.dst_server, now);
  }
}

void CompletionLedger::BufferReport(JobId job, int64_t block, ServerId src, ServerId dst) {
  if (view_ == nullptr) {
    return;
  }
  unreported_[topo_->server(dst).dc].push_back(PendingReport{job, block, src, dst});
}

void CompletionLedger::FlushReports() {
  if (view_ == nullptr) {
    return;
  }
  // Deterministic draw order: agents report in DC order.
  std::vector<DcId> dcs;
  dcs.reserve(unreported_.size());
  for (const auto& [dc, pending] : unreported_) {
    if (!pending.empty()) {
      dcs.push_back(dc);
    }
  }
  std::sort(dcs.begin(), dcs.end());
  for (DcId dc : dcs) {
    if (fault_->DrawReportLost(dc)) {
      continue;
    }
    std::vector<PendingReport>& pending = unreported_[dc];
    for (const PendingReport& r : pending) {
      (void)view_->NoteDelivery(r.job, r.block, r.src, r.dst);
    }
    pending.clear();
  }
}

void CompletionLedger::DropReportsTo(ServerId server) {
  for (auto& [dc, pending] : unreported_) {
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [server](const PendingReport& r) { return r.dst == server; }),
                  pending.end());
  }
}

void CompletionLedger::RecordDelivery(JobId job, ServerId dest_server, SimTime now) {
  ++report_.deliveries;
  ++deliveries_this_cycle_;
  server_last_delivery_[dest_server] = now;
  if (report_.job_completion.count(job) != 0 || !state_->JobComplete(job)) {
    return;
  }
  report_.job_completion[job] = now;
  ++report_.jobs_completed_total;
  const MulticastJob* mj = state_->FindJob(job);
  const double duration = now - (mj != nullptr ? mj->arrival_time : 0.0);
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
  if (fr.active()) {
    fr.Completion(job, now, duration);
  }
  if (timeseries_ != nullptr) {
    timeseries_->ObserveCompletion(now, duration);
  }
  report_.job_durations.Add(duration);
  Digest d{report_.completion_digest};
  d.Mix(static_cast<uint64_t>(job));
  d.MixDouble(duration);
  report_.completion_digest = d.h;
  BDS_TELEMETRY_HISTOGRAM("controller.job_completion_minutes", ToMinutes(duration));
  if (retire_completed_) {
    retirable_.push_back(job);
  }
}

void CompletionLedger::RetireCompleted(SimTime now) {
  if (!retire_completed_) {
    return;
  }
  size_t keep = 0;
  for (JobId job : retirable_) {
    // A server failure can re-owe a recorded-complete job; retry once it
    // completes again. The stale view can also lag the job's completion —
    // retiring it from ground truth but not the view would leave the view
    // scheduling phantom deliveries forever, so wait for both to agree.
    if (!state_->JobComplete(job) || (view_ != nullptr && !view_->JobComplete(job))) {
      retirable_[keep++] = job;
      continue;
    }
    Status s = state_->RetireJob(job);
    BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
    if (view_ != nullptr) {
      Status vs = view_->RetireJob(job);
      BDS_CHECK_MSG(vs.ok(), vs.ToString().c_str());
    }
    telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
    if (fr.active()) {
      fr.Retire(job, now);
    }
    report_.job_completion.erase(job);
  }
  retirable_.resize(keep);
}

void CompletionLedger::CloseCycle(const CycleStats& stats, int64_t live_flows) {
  report_.peak_live_pending = std::max(report_.peak_live_pending, state_->num_pending());
  report_.peak_live_jobs = std::max(report_.peak_live_jobs, state_->num_live_jobs());
  report_.peak_live_flows = std::max(report_.peak_live_flows, live_flows);
  BDS_TELEMETRY_COUNT("controller.cycles", 1);
  BDS_TELEMETRY_COUNT("controller.blocks_delivered", stats.blocks_delivered);
  BDS_TELEMETRY_GAUGE("controller.live_pending", static_cast<double>(state_->num_pending()));
  BDS_TELEMETRY_GAUGE("controller.degradation_rung", static_cast<double>(stats.rung));
  telemetry::TraceInstant("controller.cycle.stats", "controller",
                          {{"cycle", static_cast<double>(stats.cycle)},
                           {"scheduled_blocks", static_cast<double>(stats.scheduled_blocks)},
                           {"transfers_started", static_cast<double>(stats.transfers_started)},
                           {"blocks_delivered", static_cast<double>(stats.blocks_delivered)}});
  // Only simulation-determined fields enter the digest. Wall-clock-derived
  // ones (scheduling/routing seconds and the feedback delay, which folds the
  // algorithm's measured runtime in) vary run to run without the simulation
  // differing.
  Digest d{report_.cycles_digest};
  d.Mix(static_cast<uint64_t>(stats.cycle));
  d.MixDouble(stats.start_time);
  d.Mix(stats.controller_up ? 1 : 0);
  d.Mix(static_cast<uint64_t>(stats.scheduled_blocks));
  d.Mix(static_cast<uint64_t>(stats.merged_subtasks));
  d.Mix(static_cast<uint64_t>(stats.transfers_started));
  d.Mix(static_cast<uint64_t>(stats.blocks_delivered));
  d.Mix(static_cast<uint64_t>(stats.rung));
  report_.cycles_digest = d.h;
  ++report_.total_cycles;
  std::vector<CycleStats>& ring = report_.cycles;
  ring.push_back(stats);
  if (max_cycle_stats_ > 0 &&
      static_cast<int64_t>(ring.size()) > max_cycle_stats_ + max_cycle_stats_ / 2) {
    ring.erase(ring.begin(), ring.end() - static_cast<long>(max_cycle_stats_));
  }
}

RunReport CompletionLedger::Report(bool sources_drained, StopReason stop, SimTime now) {
  std::vector<CycleStats> cycles;
  cycles.swap(report_.cycles);  // The ring belongs to the run reported; hand it over.
  RunReport report = report_;
  report.cycles = std::move(cycles);
  report.completed = state_->AllComplete() && sources_drained;
  report.stop_reason = stop;
  report.retired_jobs = state_->retired_jobs();
  report.retired_blocks = state_->retired_blocks();
  // Quantiles sort the ledger's samples, not the copy: the report keeps them
  // in completion order.
  if (!report_.job_durations.empty()) {
    report.completion_p50 = report_.job_durations.Quantile(0.5);
    report.completion_p95 = report_.job_durations.Quantile(0.95);
    report.completion_p99 = report_.job_durations.Quantile(0.99);
  }
  report.faults = fault_->stats();
  report.origin_stats = state_->origin_stats();

  SimTime latest = 0.0;
  for (ServerId s : state_->AllDestinationServers()) {
    auto it = server_last_delivery_.find(s);
    SimTime t = it == server_last_delivery_.end() ? 0.0 : it->second;
    if (state_->OwedByServer(s) == 0) {
      report.server_completion.emplace_back(s, t);
      SimTime& dc_latest = report.dc_completion[topo_->server(s).dc];
      dc_latest = std::max(dc_latest, t);
      latest = std::max(latest, t);
    }
  }
  std::sort(report.server_completion.begin(), report.server_completion.end());
  report.completion_time = report.completed ? latest : now;
  return report;
}

}  // namespace bds
