#include "src/telemetry/metrics.h"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "src/common/status.h"

namespace bds {
namespace telemetry {

namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Registry internals.

// One thread's private block of metric storage. The owning thread is the
// only writer (relaxed stores); Snapshot() readers do relaxed loads. Atomics
// make the cross-thread reads well-defined without any locking on the update
// path.
struct MetricsRegistry::Shard {
  std::atomic<int64_t> counters[kMaxCounters];
  struct HistShard {
    std::atomic<int64_t> bins[kMaxBins];
    std::atomic<int64_t> count;
    std::atomic<double> sum;
    std::atomic<double> max;
  };
  HistShard hists[kMaxHistograms];

  Shard() {
    for (auto& c : counters) {
      c.store(0, std::memory_order_relaxed);
    }
    ZeroHists();
  }

  void ZeroCounters() {
    for (auto& c : counters) {
      c.store(0, std::memory_order_relaxed);
    }
  }

  void ZeroHists() {
    for (auto& h : hists) {
      for (auto& b : h.bins) {
        b.store(0, std::memory_order_relaxed);
      }
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.max.store(0.0, std::memory_order_relaxed);
    }
  }
};

struct MetricsRegistry::Impl {
  mutable std::mutex mu;

  // Registration state (guarded by mu).
  std::unordered_map<std::string, int> counter_ids;
  std::unordered_map<std::string, int> gauge_ids;
  std::unordered_map<std::string, int> hist_ids;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;

  struct HistParams {
    double lo = 0.0;
    double hi = 1.0;
    int bins = 1;
  };
  // Indexed by handle id; written once at registration, read lock-free on
  // the record path (the handle's publication synchronizes the write).
  HistParams hist_params[kMaxHistograms];

  // Gauges: rare last-writer-wins sets, one central array.
  std::atomic<double> gauges[kMaxGauges];

  // Live per-thread shards and the folded totals of exited threads
  // (guarded by mu).
  std::vector<Shard*> live_shards;
  int64_t retired_counters[kMaxCounters] = {};
  int64_t retired_bins[kMaxHistograms][kMaxBins] = {};
  int64_t retired_hist_count[kMaxHistograms] = {};
  double retired_hist_sum[kMaxHistograms] = {};
  double retired_hist_max[kMaxHistograms] = {};
  int64_t retired_threads = 0;

  Impl() {
    for (auto& g : gauges) {
      g.store(0.0, std::memory_order_relaxed);
    }
  }

  void FoldShardLocked(const Shard& shard) {
    for (int i = 0; i < kMaxCounters; ++i) {
      retired_counters[i] += shard.counters[i].load(std::memory_order_relaxed);
    }
    for (int h = 0; h < kMaxHistograms; ++h) {
      const Shard::HistShard& hs = shard.hists[h];
      if (hs.count.load(std::memory_order_relaxed) == 0) {
        continue;
      }
      for (int b = 0; b < kMaxBins; ++b) {
        retired_bins[h][b] += hs.bins[b].load(std::memory_order_relaxed);
      }
      retired_hist_count[h] += hs.count.load(std::memory_order_relaxed);
      retired_hist_sum[h] += hs.sum.load(std::memory_order_relaxed);
      retired_hist_max[h] = std::max(retired_hist_max[h], hs.max.load(std::memory_order_relaxed));
    }
  }
};

namespace {

// Ties a shard's lifetime to its thread: folds the totals into the registry
// when the thread exits so no samples are lost.
struct ShardOwner {
  MetricsRegistry::Shard* shard = nullptr;
  MetricsRegistry::Impl* impl = nullptr;

  ~ShardOwner();
};

thread_local ShardOwner t_shard_owner;

}  // namespace

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: worker threads may outlive main and still fold their
  // shards into the registry from ShardOwner destructors.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Shard* MetricsRegistry::ShardForThisThread() {
  ShardOwner& owner = t_shard_owner;
  if (owner.shard == nullptr) {
    owner.shard = new Shard();
    owner.impl = impl_;
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->live_shards.push_back(owner.shard);
  }
  return owner.shard;
}

namespace {

ShardOwner::~ShardOwner() {
  if (shard == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(impl->mu);
  impl->FoldShardLocked(*shard);
  auto& live = impl->live_shards;
  live.erase(std::remove(live.begin(), live.end(), shard), live.end());
  ++impl->retired_threads;
  delete shard;
}

}  // namespace

CounterHandle MetricsRegistry::RegisterCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counter_ids.find(std::string(name));
  if (it != impl_->counter_ids.end()) {
    return CounterHandle{it->second};
  }
  if (static_cast<int>(impl_->counter_names.size()) >= kMaxCounters) {
    return CounterHandle{};  // Capacity exhausted: no-op handle.
  }
  int id = static_cast<int>(impl_->counter_names.size());
  impl_->counter_names.emplace_back(name);
  impl_->counter_ids.emplace(std::string(name), id);
  return CounterHandle{id};
}

GaugeHandle MetricsRegistry::RegisterGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->gauge_ids.find(std::string(name));
  if (it != impl_->gauge_ids.end()) {
    return GaugeHandle{it->second};
  }
  if (static_cast<int>(impl_->gauge_names.size()) >= kMaxGauges) {
    return GaugeHandle{};
  }
  int id = static_cast<int>(impl_->gauge_names.size());
  impl_->gauge_names.emplace_back(name);
  impl_->gauge_ids.emplace(std::string(name), id);
  return GaugeHandle{id};
}

HistogramHandle MetricsRegistry::RegisterHistogram(std::string_view name, double lo, double hi,
                                                   int bins) {
  BDS_CHECK(hi > lo && bins > 0);
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->hist_ids.find(std::string(name));
  if (it != impl_->hist_ids.end()) {
    return HistogramHandle{it->second};  // First registration's layout wins.
  }
  if (static_cast<int>(impl_->hist_names.size()) >= kMaxHistograms) {
    return HistogramHandle{};
  }
  int id = static_cast<int>(impl_->hist_names.size());
  impl_->hist_names.emplace_back(name);
  impl_->hist_ids.emplace(std::string(name), id);
  impl_->hist_params[id] = {lo, hi, std::min(bins, kMaxBins)};
  return HistogramHandle{id};
}

HistogramHandle MetricsRegistry::RegisterTimer(std::string_view name) {
  // Milliseconds; runs we time are well under a second per scope, and the
  // sum/max fields keep exact totals for anything that clamps.
  return RegisterHistogram(name, 0.0, 1000.0, 100);
}

void MetricsRegistry::CounterAdd(CounterHandle h, int64_t delta) {
  if (!h.valid()) {
    return;
  }
  std::atomic<int64_t>& cell = ShardForThisThread()->counters[h.id];
  // Single writer per shard: load+store beats a lock-prefixed RMW.
  cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

void MetricsRegistry::GaugeSet(GaugeHandle h, double value) {
  if (!h.valid()) {
    return;
  }
  impl_->gauges[h.id].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::HistogramRecord(HistogramHandle h, double value) {
  if (!h.valid()) {
    return;
  }
  const Impl::HistParams& p = impl_->hist_params[h.id];
  int bin = static_cast<int>((value - p.lo) / (p.hi - p.lo) * static_cast<double>(p.bins));
  bin = std::clamp(bin, 0, p.bins - 1);
  Shard::HistShard& hs = ShardForThisThread()->hists[h.id];
  std::atomic<int64_t>& cell = hs.bins[bin];
  cell.store(cell.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  hs.count.store(hs.count.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  hs.sum.store(hs.sum.load(std::memory_order_relaxed) + value, std::memory_order_relaxed);
  if (value > hs.max.load(std::memory_order_relaxed)) {
    hs.max.store(value, std::memory_order_relaxed);
  }
}

void MetricsRegistry::HistogramRecordBulk(HistogramHandle h, const int64_t* bin_counts,
                                          int num_bins, int64_t count, double sum,
                                          double max_seen) {
  if (!h.valid() || count <= 0) {
    return;
  }
  const Impl::HistParams& p = impl_->hist_params[h.id];
  Shard::HistShard& hs = ShardForThisThread()->hists[h.id];
  const int n = num_bins < p.bins ? num_bins : p.bins;
  for (int i = 0; i < n; ++i) {
    if (bin_counts[i] != 0) {
      std::atomic<int64_t>& cell = hs.bins[i];
      cell.store(cell.load(std::memory_order_relaxed) + bin_counts[i],
                 std::memory_order_relaxed);
    }
  }
  hs.count.store(hs.count.load(std::memory_order_relaxed) + count,
                 std::memory_order_relaxed);
  hs.sum.store(hs.sum.load(std::memory_order_relaxed) + sum, std::memory_order_relaxed);
  if (max_seen > hs.max.load(std::memory_order_relaxed)) {
    hs.max.store(max_seen, std::memory_order_relaxed);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);

  int n_counters = static_cast<int>(impl_->counter_names.size());
  snap.counters.reserve(static_cast<size_t>(n_counters));
  for (int i = 0; i < n_counters; ++i) {
    int64_t value = impl_->retired_counters[i];
    for (const Shard* shard : impl_->live_shards) {
      value += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.push_back({impl_->counter_names[i], value});
  }

  int n_gauges = static_cast<int>(impl_->gauge_names.size());
  snap.gauges.reserve(static_cast<size_t>(n_gauges));
  for (int i = 0; i < n_gauges; ++i) {
    snap.gauges.push_back({impl_->gauge_names[i], impl_->gauges[i].load(std::memory_order_relaxed)});
  }

  int n_hists = static_cast<int>(impl_->hist_names.size());
  snap.histograms.reserve(static_cast<size_t>(n_hists));
  for (int i = 0; i < n_hists; ++i) {
    const Impl::HistParams& p = impl_->hist_params[i];
    MetricsSnapshot::HistogramEntry entry{impl_->hist_names[i], Histogram(p.lo, p.hi, p.bins),
                                          impl_->retired_hist_sum[i], impl_->retired_hist_max[i]};
    for (int b = 0; b < p.bins; ++b) {
      entry.hist.AddCount(b, impl_->retired_bins[i][b]);
    }
    for (const Shard* shard : impl_->live_shards) {
      const Shard::HistShard& hs = shard->hists[i];
      if (hs.count.load(std::memory_order_relaxed) == 0) {
        continue;
      }
      // Materialize the shard's bins and pool them in via Histogram::Merge.
      Histogram shard_hist(p.lo, p.hi, p.bins);
      for (int b = 0; b < p.bins; ++b) {
        shard_hist.AddCount(b, hs.bins[b].load(std::memory_order_relaxed));
      }
      entry.hist.Merge(shard_hist);
      entry.sum += hs.sum.load(std::memory_order_relaxed);
      entry.max = std::max(entry.max, hs.max.load(std::memory_order_relaxed));
    }
    snap.histograms.push_back(std::move(entry));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& c : impl_->retired_counters) {
    c = 0;
  }
  for (auto& row : impl_->retired_bins) {
    for (auto& b : row) {
      b = 0;
    }
  }
  for (auto& c : impl_->retired_hist_count) {
    c = 0;
  }
  for (auto& s : impl_->retired_hist_sum) {
    s = 0.0;
  }
  for (auto& m : impl_->retired_hist_max) {
    m = 0.0;
  }
  for (auto& g : impl_->gauges) {
    g.store(0.0, std::memory_order_relaxed);
  }
  for (Shard* shard : impl_->live_shards) {
    shard->ZeroCounters();
    shard->ZeroHists();
  }
}

int64_t MetricsRegistry::retired_threads() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->retired_threads;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot.

MetricsSnapshot MetricsSnapshot::DiffSince(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out = *this;
  for (auto& counter : out.counters) {
    if (const CounterEntry* was = earlier.FindCounter(counter.name)) {
      counter.value -= was->value;
    }
  }
  for (auto& entry : out.histograms) {
    const HistogramEntry* was = earlier.FindHistogram(entry.name);
    if (was == nullptr || was->hist.bins() != entry.hist.bins() ||
        was->hist.lo() != entry.hist.lo() || was->hist.hi() != entry.hist.hi()) {
      continue;
    }
    for (int b = 0; b < entry.hist.bins(); ++b) {
      entry.hist.AddCount(b, -was->hist.BinCount(b));
    }
    entry.sum -= was->sum;
  }
  return out;
}

const MetricsSnapshot::CounterEntry* MetricsSnapshot::FindCounter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

const MetricsSnapshot::GaugeEntry* MetricsSnapshot::FindGauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) {
      return &g;
    }
  }
  return nullptr;
}

const MetricsSnapshot::HistogramEntry* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

int64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const CounterEntry* c = FindCounter(name);
  return c != nullptr ? c->value : 0;
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream os;
  for (const auto& c : counters) {
    if (c.value != 0) {
      os << c.name << " = " << c.value << "\n";
    }
  }
  for (const auto& g : gauges) {
    if (g.value != 0.0) {
      os << g.name << " = " << g.value << "\n";
    }
  }
  for (const auto& h : histograms) {
    if (h.hist.total() > 0) {
      double mean = h.sum / static_cast<double>(h.hist.total());
      os << h.name << ": n=" << h.hist.total() << " mean=" << mean << " max=" << h.max << "\n";
    }
  }
  return os.str();
}

}  // namespace telemetry
}  // namespace bds
