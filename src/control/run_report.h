// What a controller run reports: per-cycle stats, why the run stopped, and
// the accounting RunReport::Fingerprint() digests. CompletionLedger
// (src/control/completion_ledger.h) fills it in as the run goes.

#ifndef BDS_SRC_CONTROL_RUN_REPORT_H_
#define BDS_SRC_CONTROL_RUN_REPORT_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/fault/fault_injector.h"
#include "src/scheduler/replica_state.h"
#include "src/telemetry/metrics.h"

namespace bds {

struct CycleStats {
  int64_t cycle = 0;
  SimTime start_time = 0.0;
  bool controller_up = true;
  int64_t scheduled_blocks = 0;
  int64_t merged_subtasks = 0;
  int64_t transfers_started = 0;
  int64_t blocks_delivered = 0;  // Deliveries completing within this cycle.
  double scheduling_seconds = 0.0;
  double routing_seconds = 0.0;
  double feedback_delay = 0.0;
  // Degradation rung this cycle ran at (DegradationRung as int) and the cost
  // the watchdog charged it. Both are simulation-determined: the cost comes
  // from the deterministic cost model.
  int rung = 0;
  double modeled_cost_seconds = 0.0;
};

// Why Run() returned — a bare `completed` bool conflated "drained every job"
// with "gave up": a wedged run and a deadline-bounded steady-state run both
// reported completed=false.
enum class StopReason {
  kDrained,   // Every arrived job completed and no more arrivals are due.
  kDeadline,  // Simulated deadline passed with work still outstanding.
  kWedged,    // Nothing pending can ever complete (e.g. every holder failed).
  kAborted,   // Hard cycle cap hit — a wedge the detector could not prove.
};

const char* StopReasonName(StopReason reason);

struct RunReport {
  bool completed = false;
  StopReason stop_reason = StopReason::kDeadline;
  SimTime completion_time = 0.0;
  int64_t deliveries = 0;
  // Per-cycle stats. In bounded-memory service mode only the most recent
  // cycles are kept (ConfigureRetirement); total_cycles and cycles_digest
  // always cover the whole run, so the fingerprint does not depend on how
  // much history was retained.
  std::vector<CycleStats> cycles;
  int64_t total_cycles = 0;
  uint64_t cycles_digest = 0;
  std::unordered_map<JobId, SimTime> job_completion;
  // Per destination server: when it finished receiving its shard.
  std::vector<std::pair<ServerId, SimTime>> server_completion;
  std::unordered_map<DcId, SimTime> dc_completion;
  std::unordered_map<ServerId, ReplicaState::ServerOriginStats> origin_stats;
  EmpiricalDistribution control_delays;   // One-way messages (Fig 11b).
  EmpiricalDistribution feedback_delays;  // Full loop (Fig 11c).
  FaultStats faults;                      // Injected-fault counters.
  // Worst (bulk_rate - usable_capacity) / nominal_capacity observed at any
  // cycle boundary; <= ~0 means no link ever exceeded its (possibly faulted)
  // capacity. Engaged only when ControllerOptions::validate_invariants was
  // on — nullopt means "not measured", which previous versions conflated
  // with a -1.0 sentinel that consumers could mistake for "no overshoot".
  std::optional<double> max_link_overshoot;
  // What the run changed in the telemetry registry (counters, gauges,
  // latency histograms) between Run() entry and exit. Empty unless
  // telemetry::Enabled() was set. Excluded from Fingerprint(): metrics carry
  // wall-clock-derived values and must never affect determinism checks.
  telemetry::MetricsSnapshot telemetry;

  // Steady-state service accounting. jobs_completed_total and
  // completion_digest survive retirement (job_completion only holds
  // unretired jobs in bounded-memory mode). job_durations holds every
  // completed job's arrival-to-completion time; the percentile fields are
  // precomputed from it (excluded from Fingerprint, like control_delays —
  // the digest already covers every sample).
  int64_t jobs_completed_total = 0;
  uint64_t completion_digest = 0;
  int64_t retired_jobs = 0;
  int64_t retired_blocks = 0;
  EmpiricalDistribution job_durations;
  double completion_p50 = 0.0;
  double completion_p95 = 0.0;
  double completion_p99 = 0.0;
  // High-water marks sampled at cycle boundaries — the bounded-memory soak
  // asserts these plateau while retired counts keep growing.
  int64_t peak_live_pending = 0;
  int64_t peak_live_jobs = 0;
  int64_t peak_live_flows = 0;

  std::vector<double> ServerCompletionMinutes() const;

  // Order-independent digest of every simulation-determined field (wall-clock
  // timings excluded). Two runs with the same seed and inputs must produce
  // equal fingerprints — the determinism guarantee the chaos soak checks.
  uint64_t Fingerprint() const;
};

}  // namespace bds

#endif  // BDS_SRC_CONTROL_RUN_REPORT_H_
