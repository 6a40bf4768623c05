// Per-transfer flight recorder: a bounded lifecycle journal for every job the
// controller touches — arrival, admission verdict (with the reject/defer
// reason), per-cycle schedule events (endpoints, rate, degradation rung),
// sampled flow-rate changepoints, fault hits, cancellations, completion and
// retirement — exported as JSONL for tools/bds_explain.py.
//
// Retention is reservoir-style and deterministic: the journal table is capped
// at max_transfers, and when it is full the *fastest-completing uninteresting*
// journal is evicted first, so what survives a long soak is exactly what an
// operator asks about — the slowest (p99) transfers, rejected jobs, and
// transfers that a fault touched. Per-journal events are capped too; drops
// are counted, never silent.
//
// Determinism contract (same as trace.h): the recorder only observes. Event
// payloads are simulation-determined values; recording never draws RNG or
// changes control flow, and nothing here enters RunReport::Fingerprint().
// When inactive every call site costs one relaxed atomic load and a branch.

#ifndef BDS_SRC_TELEMETRY_FLIGHT_RECORDER_H_
#define BDS_SRC_TELEMETRY_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace bds {
namespace telemetry {

enum class FlightEventKind {
  kArrival,
  kAdmission,
  kSchedule,
  kRateChange,
  kFaultHit,
  kCancel,
  kCompletion,
  kRetire,
};

const char* FlightEventKindName(FlightEventKind kind);

// One journal entry. `detail` / `detail2` must be string literals (stored by
// pointer, like TraceArg keys); the numeric payload is interpreted per kind —
// see FlightRecorder::WriteJsonl for the field names each kind exports.
struct FlightEvent {
  FlightEventKind kind = FlightEventKind::kArrival;
  SimTime time = 0.0;
  int64_t cycle = -1;        // Controller cycle; -1 when not cycle-scoped.
  const char* detail = "";   // Verdict / rung name / fault kind / reason.
  const char* detail2 = "";  // Admission reason.
  double v0 = 0.0;
  double v1 = 0.0;
  double v2 = 0.0;
  double v3 = 0.0;
};

struct FlightJournal {
  JobId job = kInvalidJob;
  bool rejected = false;       // Admission refused the job.
  bool fault_touched = false;  // A link/server fault or corruption hit it.
  bool completed = false;
  double duration_seconds = 0.0;  // Arrival to completion; valid iff completed.
  int64_t dropped_events = 0;     // Events lost to the per-journal cap.
  std::vector<FlightEvent> events;

  bool interesting() const { return rejected || fault_touched; }
};

struct FlightRecorderOptions {
  size_t max_transfers = 1024;          // Journal-table cap.
  size_t max_events_per_transfer = 128; // Per-journal event cap.
  // Global budget for rate-changepoint events (they are the only event class
  // driven from the simulator hot path). This is the recorder's hot-path CPU
  // ceiling: every attempt — recorded, journal-cap-dropped, or unmatched —
  // consumes budget, and once it is spent WantsRateEvents() goes false and
  // the simulator's rate observer uninstalls itself, so the remainder of the
  // run pays nothing. 16Ki locked appends is ~3 ms; the telemetry_overhead
  // bench gate (<= 1.03x) is what sizes this default.
  int64_t max_rate_events = 16384;
};

// The rate observer that feeds the recorder (NetworkSimulator::
// SetRateObserver) only reports a changepoint when the new rate differs from
// the flow's last *reported* rate by more than this fraction of the larger
// of the two; 0-to-nonzero transitions always report, and slow drift
// reports once it accumulates past the band.
inline constexpr double kFlightMinRelativeRateChange = 0.25;

class FlightRecorder {
 public:
  static FlightRecorder& Global();

  // Starts recording into a fresh journal table. Does NOT flip the metrics
  // registry: the recorder is an independent subsystem.
  void Start(const FlightRecorderOptions& options = {});
  void Stop();  // Journals stay buffered for export.
  bool active() const { return active_.load(std::memory_order_relaxed); }
  const FlightRecorderOptions& options() const { return options_; }

  // True while recording with rate-changepoint budget remaining. Rate
  // observers check this before any per-changepoint work (tag filtering, the
  // transfer-map lookup), so once the budget is spent a changepoint costs
  // one relaxed load — the budget would otherwise only short-circuit inside
  // RateChange, after the lookup.
  bool WantsRateEvents() const {
    return active() && rate_budget_.load(std::memory_order_relaxed) > 0;
  }

  // --- Lifecycle events. Callers must check active() first (the inline
  // wrappers below do); every method re-checks, so a race with Stop() is
  // merely a late event, never a crash. ---
  void Arrival(JobId job, SimTime t, int source_dc, int num_dests, int64_t num_blocks,
               double bytes);
  void AdmissionVerdict(JobId job, SimTime t, const char* verdict, const char* reason,
                        int64_t backlog_deliveries);
  void Schedule(JobId job, SimTime t, int64_t cycle, const char* rung, ServerId src,
                ServerId dst, double rate, int64_t num_blocks);
  void RateChange(JobId job, SimTime t, double old_rate, double new_rate);
  void FaultHit(JobId job, SimTime t, const char* fault_kind, int64_t subject);
  void Cancel(JobId job, SimTime t, const char* reason, int64_t credited_blocks);
  void Completion(JobId job, SimTime t, double duration_seconds);
  void Retire(JobId job, SimTime t);

  // --- Introspection / export. ---
  size_t num_transfers() const;
  int64_t num_events() const;
  int64_t dropped_events() const;      // Per-journal cap hits.
  int64_t evicted_transfers() const;   // Journals evicted to make room.
  int64_t rate_events_dropped() const; // Changepoints past the global budget.
  // Journals sorted by job id (a copy; safe to use after Stop()).
  std::vector<FlightJournal> Journals() const;
  // JSONL: one bds-flight-v1 meta line, then one line per journal (sorted by
  // job id) with the nested event list.
  Status WriteJsonl(const std::string& path) const;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  FlightRecorder();
  ~FlightRecorder() = delete;  // Global() object is never destroyed.

  struct Impl;

  std::atomic<bool> active_{false};
  std::atomic<int64_t> rate_budget_{0};
  std::atomic<int64_t> rate_dropped_{0};
  FlightRecorderOptions options_;
  Impl* impl_;
};

}  // namespace telemetry
}  // namespace bds

#endif  // BDS_SRC_TELEMETRY_FLIGHT_RECORDER_H_
