// Process-wide metrics registry: named counters, gauges, and histogram
// summaries (count, sum, max) with handle-based updates.
//
// Design (see DESIGN.md "Observability"):
//  - Registration resolves a name to a dense integer handle once, under a
//    mutex. Hot-path updates use only the handle — no map lookup, no lock.
//  - Every value lives in one process-wide block of relaxed atomics, so any
//    thread may write any metric: counters and histogram sums add with
//    fetch_add, gauges store (last writer wins), and a histogram's max
//    rises by a compare-exchange loop. Totals are exact at any thread count.
//  - The registry only observes. It never draws RNG values or changes
//    control flow, so enabling it cannot perturb a deterministic run.
//
// Use the BDS_TELEMETRY_* macros in telemetry.h rather than calling the
// registry directly: they cache the handle in a function-local static and
// gate everything behind telemetry::Enabled(), so the disabled cost is one
// relaxed atomic load and a branch.

#ifndef BDS_SRC_TELEMETRY_METRICS_H_
#define BDS_SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bds {
namespace telemetry {

// Process-wide enable gate. Everything telemetry-related is compiled in but
// branch-gated on this flag; it defaults to off.
bool Enabled();
void SetEnabled(bool enabled);

// Typed handles. A default-constructed handle (id < 0) is a valid no-op
// target, which is also what registration returns when the registry's fixed
// capacity is exhausted.
struct CounterHandle {
  int id = -1;
  bool valid() const { return id >= 0; }
};
struct GaugeHandle {
  int id = -1;
  bool valid() const { return id >= 0; }
};
struct HistogramHandle {
  int id = -1;
  bool valid() const { return id >= 0; }
};

// A point-in-time copy of every registered metric. Plain data: safe to keep,
// diff, and print after the registry has moved on.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    int64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    // The sample count; named `hist.total()` because perfbench/bds_perf.cc reads it so.
    struct Count {
      int64_t n = 0;
      int64_t total() const { return n; }
    };
    std::string name;
    Count hist;
    double sum = 0.0;  // Sum of recorded values, e.g. total ms.
    double max = 0.0;  // Max recorded value (0 when none is positive). Not diffable.
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  // This snapshot minus an earlier one: counters and histogram counts and
  // sums subtract by name; gauges and histogram `max` keep their current
  // values (a gauge is a level, not a flow, and a max cannot be un-merged).
  // Metrics registered after `earlier` was taken pass through unchanged.
  MetricsSnapshot DiffSince(const MetricsSnapshot& earlier) const;

  const CounterEntry* FindCounter(std::string_view name) const;
  const GaugeEntry* FindGauge(std::string_view name) const;
  const HistogramEntry* FindHistogram(std::string_view name) const;
  int64_t CounterValue(std::string_view name) const;  // 0 when absent.

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }

  std::string ToString() const;  // Human-readable table.
};

class MetricsRegistry {
 public:
  // Fixed capacities. Registration past these limits returns an invalid
  // (no-op) handle; update sites keep working, the metric is just not
  // recorded. Sized with ~4x headroom over current usage.
  static constexpr int kMaxCounters = 256;
  static constexpr int kMaxGauges = 64;
  static constexpr int kMaxHistograms = 96;

  static MetricsRegistry& Global();

  // Idempotent by name: re-registering returns the original handle.
  // Thread-safe.
  CounterHandle RegisterCounter(std::string_view name);
  GaugeHandle RegisterGauge(std::string_view name);
  HistogramHandle RegisterHistogram(std::string_view name);

  // Hot-path updates. Invalid handles are ignored. Thread-safe.
  void CounterAdd(CounterHandle h, int64_t delta);
  void GaugeSet(GaugeHandle h, double value);
  void HistogramRecord(HistogramHandle h, double value) {
    HistogramRecordBulk(h, 1, value, value);
  }
  // Folds `count` samples summing to `sum` with largest value `max_seen`
  // into the histogram in one call: the histogram analogue of the
  // accumulate-then-publish counter pattern (telemetry.h), for hot loops
  // that keep plain locals and publish once per drive call.
  void HistogramRecordBulk(HistogramHandle h, int64_t count, double sum, double max_seen);

  // Reads every registered metric. Safe to call concurrently with updates
  // (relaxed reads: the snapshot is exact once writer threads are
  // quiescent, which is when callers take snapshots).
  MetricsSnapshot Snapshot() const;

  // Zeroes every value. Registered names and handles survive. Callers must
  // ensure no concurrent updates (tests and run setup only).
  void Reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  struct Impl;

  MetricsRegistry();
  ~MetricsRegistry() = delete;  // Global() object is never destroyed.

  Impl* impl_;
};

}  // namespace telemetry
}  // namespace bds

#endif  // BDS_SRC_TELEMETRY_METRICS_H_
