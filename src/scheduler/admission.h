// Admission control for the long-running service mode.
//
// BDS as published assumes the offered load fits: every submitted transfer is
// eventually scheduled. Under sustained open-loop arrivals that assumption
// breaks — a backlog the network cannot drain grows without bound, and every
// job's completion time diverges. Following DCRoute's observation (PAPERS.md)
// that admission against residual capacity beats silently accumulating an
// unservable backlog, the controller estimates its service rate (deliveries
// drained per cycle, EWMA-smoothed) and rejects — or defers, policy knob —
// any job whose acceptance would push the backlog beyond a bounded number of
// cycles' worth of work.
//
// Everything here is driven by simulation-determined counts, so admission
// decisions are bit-identical across thread/shard counts.

#ifndef BDS_SRC_SCHEDULER_ADMISSION_H_
#define BDS_SRC_SCHEDULER_ADMISSION_H_

#include <cstdint>

namespace bds {

enum class AdmissionPolicy {
  kReject,  // Over-budget jobs are refused outright.
  kDefer,   // Over-budget jobs wait in a bounded FIFO and are re-offered
            // each cycle; the queue overflowing rejects.
};

enum class AdmissionDecision { kAccept, kReject, kDefer };

struct AdmissionOptions {
  bool enabled = false;
  AdmissionPolicy policy = AdmissionPolicy::kReject;
  // Accept while backlog / estimated service rate <= this many cycles.
  double max_backlog_cycles = 30.0;
  // Optional absolute bound on outstanding deliveries; <= 0 disables.
  int64_t max_backlog_deliveries = 0;
  // Until this many backlogged cycles have been observed the rate estimate
  // is unreliable, so admission stays optimistic (bounded only by
  // max_backlog_deliveries).
  int64_t bootstrap_cycles = 8;
};

struct AdmissionStats {
  int64_t offered = 0;   // Jobs presented to Admit().
  int64_t accepted = 0;  // Includes deferred jobs admitted later.
  int64_t rejected = 0;  // Immediate rejections plus defer-queue overflow.
  int64_t deferred = 0;  // Jobs that entered the defer queue at least once.
};

class AdmissionController {
 public:
  AdmissionController() : AdmissionController(AdmissionOptions{}) {}
  explicit AdmissionController(const AdmissionOptions& options) : options_(options) {}

  // Feed one completed cycle's drained deliveries. Cycles with an empty
  // backlog are skipped: zero drained because nothing was owed says nothing
  // about capacity and would drag the estimate to zero.
  void ObserveCycle(int64_t blocks_delivered, bool had_backlog);

  // Decides whether a job adding `job_deliveries` owed (block, DC) pairs may
  // join a backlog of `backlog_deliveries` (pending + deferred demand).
  // Counts the offer; use Count* below to record what the caller did with a
  // kDefer verdict.
  AdmissionDecision Admit(int64_t job_deliveries, int64_t backlog_deliveries);

  // Re-evaluates a previously deferred job (no new "offered" count).
  AdmissionDecision ReofferDeferred(int64_t job_deliveries, int64_t backlog_deliveries) const;

  // Bookkeeping hooks for the owner of the defer queue.
  void CountAccepted() { ++stats_.accepted; }
  void CountRejected() { ++stats_.rejected; }
  void CountDeferred() { ++stats_.deferred; }

  bool enabled() const { return options_.enabled; }
  const AdmissionOptions& options() const { return options_; }
  const AdmissionStats& stats() const { return stats_; }
  double estimated_service_rate() const { return service_rate_; }
  int64_t observed_cycles() const { return observed_cycles_; }

  // Why the last Admit()/ReofferDeferred() verdict came out the way it did,
  // as a static string for the flight recorder: "disabled", "under_budget",
  // "bootstrap_optimism", "max_backlog_deliveries", "zero_service_rate", or
  // "max_backlog_cycles". Purely observational — never feeds back into a
  // decision.
  const char* last_reason() const { return last_reason_; }

 private:
  // True when backlog + job exceeds the configured bounds.
  bool OverBudget(int64_t job_deliveries, int64_t backlog_deliveries) const;

  AdmissionOptions options_;
  AdmissionStats stats_;
  double service_rate_ = 0.0;     // Deliveries per cycle, EWMA.
  int64_t observed_cycles_ = 0;   // Backlogged cycles folded into the EWMA.
  // Set by OverBudget/Admit (both reachable from const ReofferDeferred);
  // mutable because it annotates the verdict rather than changing state.
  mutable const char* last_reason_ = "disabled";
};

}  // namespace bds

#endif  // BDS_SRC_SCHEDULER_ADMISSION_H_
