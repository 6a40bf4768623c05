// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with handle-based updates.
//
// Design (see DESIGN.md "Observability"):
//  - Registration resolves a name to a dense integer handle once, under a
//    mutex. Hot-path updates use only the handle — no map lookup, no lock.
//  - Counters and histograms are sharded per thread: each thread owns a
//    fixed-capacity block of atomics that only it writes (relaxed stores);
//    Snapshot() merges all live shards plus the retired totals of exited
//    threads. This makes updates race-free under ParallelRunner without any
//    contended cache line.
//  - Gauges are last-writer-wins and rare, so they live in one central
//    atomic array.
//  - The registry only observes. It never draws RNG values or changes
//    control flow, so enabling it cannot perturb a deterministic run.
//
// Use the BDS_TELEMETRY_* macros in telemetry.h rather than calling the
// registry directly: they cache the handle in a function-local static and
// gate everything behind telemetry::Enabled(), so the disabled cost is one
// relaxed atomic load and a branch.

#ifndef BDS_SRC_TELEMETRY_METRICS_H_
#define BDS_SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/stats.h"

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
    std::string name;
    Histogram hist;
    double sum = 0.0;  // Sum of recorded values (pre-clamp), e.g. total ms.
    double max = 0.0;  // Max recorded value (pre-clamp). Not diffable.
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  // This snapshot minus an earlier one: counters and histogram bin counts
  // subtract by name; gauges and histogram `max` keep their current values
  // (a gauge is a level, not a flow, and a max cannot be un-merged).
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
  // Fixed shard capacities. Registration past these limits returns an
  // invalid (no-op) handle; update sites keep working, the metric is just
  // not recorded. Sized with ~4x headroom over current usage.
  static constexpr int kMaxCounters = 256;
  static constexpr int kMaxGauges = 64;
  static constexpr int kMaxHistograms = 96;
  static constexpr int kMaxBins = 128;

  static MetricsRegistry& Global();

  // Idempotent by name: re-registering returns the original handle (for
  // histograms, the original bucket layout wins). Thread-safe.
  CounterHandle RegisterCounter(std::string_view name);
  GaugeHandle RegisterGauge(std::string_view name);
  HistogramHandle RegisterHistogram(std::string_view name, double lo, double hi, int bins);
  // A latency histogram in milliseconds with the standard timer layout
  // ([0, 1000) ms, 100 bins); BDS_TIMED_SCOPE feeds one of these.
  HistogramHandle RegisterTimer(std::string_view name);

  // Hot-path updates. Invalid handles are ignored. Thread-safe: each thread
  // writes its own shard.
  void CounterAdd(CounterHandle h, int64_t delta);
  void GaugeSet(GaugeHandle h, double value);
  void HistogramRecord(HistogramHandle h, double value);
  // Folds a locally-accumulated histogram into the thread's shard in one
  // call: bin_counts[0..num_bins) are per-bin increments (bins past the
  // histogram's layout are ignored), count/sum/max_seen update the summary
  // fields. This is the histogram analogue of the accumulate-then-publish
  // counter pattern (telemetry.h): a hot loop records into a plain local
  // array — the caller computes bins with the same clamp as HistogramRecord
  // — and publishes once per drive call instead of paying the shard walk
  // per sample.
  void HistogramRecordBulk(HistogramHandle h, const int64_t* bin_counts, int num_bins,
                           int64_t count, double sum, double max_seen);

  // Merges every live shard and all retired-thread totals into a snapshot.
  // Safe to call concurrently with updates (relaxed reads: the snapshot is a
  // consistent-enough point-in-time view once writer threads are quiescent,
  // which is when callers take snapshots).
  MetricsSnapshot Snapshot() const;

  // Zeroes all counter/histogram shards and gauges. Registered names and
  // handles survive — only values reset. Callers must ensure no concurrent
  // updates (tests and run setup only).
  void Reset();

  // Number of threads whose shards have been folded into retired totals.
  int64_t retired_threads() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Implementation detail, public only so the per-thread shard owner in the
  // .cc can name them.
  struct Shard;
  struct Impl;

 private:
  MetricsRegistry();
  ~MetricsRegistry() = delete;  // Global() object is never destroyed.

  Shard* ShardForThisThread();

  Impl* impl_;
};

}  // namespace telemetry
}  // namespace bds

#endif  // BDS_SRC_TELEMETRY_METRICS_H_
