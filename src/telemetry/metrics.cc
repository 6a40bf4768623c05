#include "src/telemetry/metrics.h"

#include <atomic>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace bds {
namespace telemetry {

namespace {
std::atomic<bool> g_enabled{false};

// Registers `name` in one metric kind's name table; an invalid id (-1) once
// `capacity` names are taken.
int RegisterName(std::unordered_map<std::string, int>& ids, std::vector<std::string>& names,
                 int capacity, std::string_view name) {
  auto it = ids.find(std::string(name));
  if (it != ids.end()) {
    return it->second;
  }
  if (static_cast<int>(names.size()) >= capacity) {
    return -1;  // Capacity exhausted: no-op handle.
  }
  int id = static_cast<int>(names.size());
  names.emplace_back(name);
  ids.emplace(std::string(name), id);
  return id;
}
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }

struct MetricsRegistry::Impl {
  // Registration state.
  mutable std::mutex mu;
  std::unordered_map<std::string, int> counter_ids;
  std::unordered_map<std::string, int> gauge_ids;
  std::unordered_map<std::string, int> hist_ids;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;

  // Values, indexed by handle id; written lock-free by any thread.
  struct Summary {
    std::atomic<int64_t> count;
    std::atomic<double> sum;
    std::atomic<double> max;
  };
  std::atomic<int64_t> counters[kMaxCounters];
  std::atomic<double> gauges[kMaxGauges];
  Summary hists[kMaxHistograms];

  Impl() { Zero(); }

  void Zero() {
    for (auto& c : counters) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& g : gauges) {
      g.store(0.0, std::memory_order_relaxed);
    }
    for (auto& h : hists) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.max.store(0.0, std::memory_order_relaxed);
    }
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: a thread still running at exit may write it.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

CounterHandle MetricsRegistry::RegisterCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return CounterHandle{RegisterName(impl_->counter_ids, impl_->counter_names, kMaxCounters, name)};
}

GaugeHandle MetricsRegistry::RegisterGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return GaugeHandle{RegisterName(impl_->gauge_ids, impl_->gauge_names, kMaxGauges, name)};
}

HistogramHandle MetricsRegistry::RegisterHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return HistogramHandle{RegisterName(impl_->hist_ids, impl_->hist_names, kMaxHistograms, name)};
}

void MetricsRegistry::CounterAdd(CounterHandle h, int64_t delta) {
  if (h.valid()) {
    impl_->counters[h.id].fetch_add(delta, std::memory_order_relaxed);
  }
}

void MetricsRegistry::GaugeSet(GaugeHandle h, double value) {
  if (h.valid()) {
    impl_->gauges[h.id].store(value, std::memory_order_relaxed);
  }
}

void MetricsRegistry::HistogramRecordBulk(HistogramHandle h, int64_t count, double sum,
                                          double max_seen) {
  if (!h.valid()) {
    return;
  }
  Impl::Summary& s = impl_->hists[h.id];
  s.count.fetch_add(count, std::memory_order_relaxed);
  s.sum.fetch_add(sum, std::memory_order_relaxed);
  double max = s.max.load(std::memory_order_relaxed);
  while (max_seen > max &&
         !s.max.compare_exchange_weak(max, max_seen, std::memory_order_relaxed)) {
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (size_t i = 0; i < impl_->counter_names.size(); ++i) {
    snap.counters.push_back(
        {impl_->counter_names[i], impl_->counters[i].load(std::memory_order_relaxed)});
  }
  for (size_t i = 0; i < impl_->gauge_names.size(); ++i) {
    snap.gauges.push_back(
        {impl_->gauge_names[i], impl_->gauges[i].load(std::memory_order_relaxed)});
  }
  for (size_t i = 0; i < impl_->hist_names.size(); ++i) {
    const Impl::Summary& s = impl_->hists[i];
    snap.histograms.push_back({impl_->hist_names[i], {s.count.load(std::memory_order_relaxed)},
                               s.sum.load(std::memory_order_relaxed),
                               s.max.load(std::memory_order_relaxed)});
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->Zero();
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
    if (const HistogramEntry* was = earlier.FindHistogram(entry.name)) {
      entry.hist.n -= was->hist.n;
      entry.sum -= was->sum;
    }
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
