// The controller's books: the in-flight transfer table, the crediting of
// delivered blocks (checksum-verified; to ground truth at once, to the view
// once the destination agent's status report gets through), retirement of
// completed jobs, and the RunReport accounting kept as the run goes.

#ifndef BDS_SRC_CONTROL_COMPLETION_LEDGER_H_
#define BDS_SRC_CONTROL_COMPLETION_LEDGER_H_

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/control/run_report.h"
#include "src/fault/fault_injector.h"
#include "src/scheduler/controller_algorithm.h"
#include "src/telemetry/timeseries.h"

namespace bds {

// A launched centralized transfer, keyed by its flow tag.
struct CtrlTransfer {
  TransferAssignment assignment;
  DcId dest_dc = kInvalidDc;
  FlowId flow = kInvalidFlow;
};

class CompletionLedger {
 public:
  // `state` is ground truth; `fault` draws block corruption and report loss.
  CompletionLedger(const Topology* topo, ReplicaState* state, FaultInjector* fault);

  // The stale view fed by status reports; while null, nothing is buffered.
  void AttachView(ReplicaState* view) { view_ = view; }
  // Completion durations also feed the SLO sampler (null: none).
  void AttachTimeseries(telemetry::SloTimeseries* timeseries) { timeseries_ = timeseries; }
  // Bounded memory: retire completed jobs and keep only the most recent
  // `max_cycle_stats` CycleStats (0 keeps all).
  void ConfigureRetirement(bool retire_completed, int64_t max_cycle_stats) {
    retire_completed_ = retire_completed;
    max_cycle_stats_ = max_cycle_stats;
  }

  // --- In-flight transfers. ---
  int64_t NextTag() { return next_tag_++; }
  // Records a started transfer and marks its deliveries in flight.
  void Open(int64_t tag, CtrlTransfer transfer);
  // Takes the transfer out of the table; its deliveries stay in flight until
  // Credit() settles it.
  std::optional<CtrlTransfer> Close(int64_t tag);
  const std::unordered_map<int64_t, CtrlTransfer>& transfers() const { return transfers_; }
  const DeliveryKeySet& in_flight() const { return in_flight_; }
  // Tags of the transfers matching `pred`, ascending (map order is incidental).
  template <typename Pred>
  std::vector<int64_t> TagsWhere(Pred&& pred) const {
    std::vector<int64_t> tags;
    for (const auto& [tag, t] : transfers_) {
      if (pred(t)) {
        tags.push_back(tag);
      }
    }
    std::sort(tags.begin(), tags.end());
    return tags;
  }

  // --- Crediting. ---
  // Settles a closed transfer: clears its deliveries from flight and credits
  // its first `full_blocks` blocks (blocks stream in order), each only if it
  // passes checksum verification; the rest stay pending. Records a delivery
  // only if a block was newly credited: a transfer the stale view scheduled
  // redundantly delivers nothing new.
  void Credit(const CtrlTransfer& t, size_t full_blocks, SimTime now);
  // A delivery the decentralized fallback made and credited itself.
  void CreditFallback(JobId job, int64_t block, ServerId src, ServerId dst, SimTime now) {
    BufferReport(job, block, src, dst);
    RecordDelivery(job, dst, now);
  }
  // Flushes buffered reports into the view, agents in DC order; a lost
  // report keeps its DC's deliveries buffered (the view stays stale).
  void FlushReports();
  // Buffered reports to a failed server die with it: flushing them later
  // would mark re-owed blocks present in the view and starve them.
  void DropReportsTo(ServerId server);

  // --- Per run and per cycle. ---
  void BeginRun() {
    report_.cycles.clear();
    report_.max_link_overshoot.reset();
  }
  void BeginCycle() { deliveries_this_cycle_ = 0; }
  int64_t deliveries_this_cycle() const { return deliveries_this_cycle_; }
  void NoteOvershoot(double overshoot) {
    report_.max_link_overshoot =
        std::max(report_.max_link_overshoot.value_or(overshoot), overshoot);
  }
  // Drops jobs recorded complete from the replica state(s); jobs a server
  // failure re-owed stay queued until they complete again.
  void RetireCompleted(SimTime now);
  // Folds a finished cycle into the peaks, the cycle digest and the ring.
  void CloseCycle(const CycleStats& stats, int64_t live_flows);
  // The accounting kept so far plus the end-of-run fields. Hands the run's
  // CycleStats ring over rather than copying it.
  RunReport Report(bool sources_drained, StopReason stop, SimTime now);

 private:
  struct PendingReport {
    JobId job;
    int64_t block;
    ServerId src;
    ServerId dst;
  };

  void BufferReport(JobId job, int64_t block, ServerId src, ServerId dst);
  void RecordDelivery(JobId job, ServerId dest_server, SimTime now);

  const Topology* topo_;
  ReplicaState* state_;
  FaultInjector* fault_;
  ReplicaState* view_ = nullptr;
  telemetry::SloTimeseries* timeseries_ = nullptr;
  bool retire_completed_ = false;
  int64_t max_cycle_stats_ = 0;

  std::unordered_map<int64_t, CtrlTransfer> transfers_;  // By flow tag.
  int64_t next_tag_ = 0;
  DeliveryKeySet in_flight_;
  std::unordered_map<DcId, std::vector<PendingReport>> unreported_;

  RunReport report_;  // The accounting fields; Report() adds the rest.
  std::unordered_map<ServerId, SimTime> server_last_delivery_;
  int64_t deliveries_this_cycle_ = 0;
  std::vector<JobId> retirable_;  // Completed, awaiting retirement.
};

}  // namespace bds

#endif  // BDS_SRC_CONTROL_COMPLETION_LEDGER_H_
