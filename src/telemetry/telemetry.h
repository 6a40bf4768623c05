// Umbrella header for the telemetry subsystem: the metrics registry, the
// trace recorder, scoped timers, and the update macros instrumentation sites
// should use.
//
// Cost model the macros guarantee:
//  - telemetry disabled (the default): one relaxed atomic load and a branch
//    per call site. No registration, no metric write, no clock read.
//  - telemetry enabled: handle resolution happens once per call site (cached
//    in a function-local static); each hit is a relaxed atomic update.
//
// Hot inner loops should not even pay the branch per iteration: accumulate
// into plain locals and publish once per call with BDS_TELEMETRY_COUNT.

#ifndef BDS_SRC_TELEMETRY_TELEMETRY_H_
#define BDS_SRC_TELEMETRY_TELEMETRY_H_

#include <chrono>

#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace bds {
namespace telemetry {

// Times a scope on a steady clock; on destruction records the elapsed
// milliseconds into a latency histogram and, when the trace recorder is
// active, emits a Chrome "X" (complete) span. Construct via BDS_TIMED_SCOPE.
class ScopedTimer {
 public:
  ScopedTimer(const char* name, HistogramHandle handle)
      : name_(name), handle_(handle), active_(Enabled()) {
    if (active_) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~ScopedTimer() {
    if (!active_) {
      return;
    }
    auto elapsed = std::chrono::steady_clock::now() - start_;
    int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    MetricsRegistry::Global().HistogramRecord(handle_, static_cast<double>(ns) / 1e6);
    TraceRecorder& recorder = TraceRecorder::Global();
    if (recorder.active()) {
      recorder.Complete(name_, "timer", recorder.NowNs() - ns, ns);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  HistogramHandle handle_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace telemetry
}  // namespace bds

#define BDS_TELEMETRY_CONCAT_(a, b) a##b
#define BDS_TELEMETRY_CONCAT(a, b) BDS_TELEMETRY_CONCAT_(a, b)

// Adds `delta` to the named counter. `name` must be a string literal (the
// handle is resolved once and cached; re-evaluating the name is pointless).
#define BDS_TELEMETRY_COUNT(name, delta)                                              \
  do {                                                                                \
    if (::bds::telemetry::Enabled()) {                                                \
      static const ::bds::telemetry::CounterHandle bds_telemetry_handle =             \
          ::bds::telemetry::MetricsRegistry::Global().RegisterCounter(name);          \
      ::bds::telemetry::MetricsRegistry::Global().CounterAdd(bds_telemetry_handle,    \
                                                             (delta));               \
    }                                                                                 \
  } while (0)

// Sets the named gauge to `value` (last writer wins).
#define BDS_TELEMETRY_GAUGE(name, value)                                              \
  do {                                                                                \
    if (::bds::telemetry::Enabled()) {                                                \
      static const ::bds::telemetry::GaugeHandle bds_telemetry_handle =               \
          ::bds::telemetry::MetricsRegistry::Global().RegisterGauge(name);            \
      ::bds::telemetry::MetricsRegistry::Global().GaugeSet(bds_telemetry_handle,      \
                                                           (value));                 \
    }                                                                                 \
  } while (0)

// Records `value` into the named histogram (count, sum and max).
#define BDS_TELEMETRY_HISTOGRAM(name, value)                                          \
  do {                                                                                \
    if (::bds::telemetry::Enabled()) {                                                \
      static const ::bds::telemetry::HistogramHandle bds_telemetry_handle =           \
          ::bds::telemetry::MetricsRegistry::Global().RegisterHistogram(name);        \
      ::bds::telemetry::MetricsRegistry::Global().HistogramRecord(bds_telemetry_handle, \
                                                                  (value));           \
    }                                                                                 \
  } while (0)

// Publishes a locally-accumulated histogram (see HistogramRecordBulk): the
// caller owns the count/sum/max scalars and calls this once per drive call,
// not per sample.
#define BDS_TELEMETRY_HISTOGRAM_BULK(name, count, sum, max_seen)                      \
  do {                                                                                \
    if (::bds::telemetry::Enabled()) {                                                \
      static const ::bds::telemetry::HistogramHandle bds_telemetry_handle =           \
          ::bds::telemetry::MetricsRegistry::Global().RegisterHistogram(name);        \
      ::bds::telemetry::MetricsRegistry::Global().HistogramRecordBulk(                \
          bds_telemetry_handle, (count), (sum), (max_seen));                          \
    }                                                                                 \
  } while (0)

// Times the rest of the enclosing scope into the latency histogram `name`
// (milliseconds) and emits a trace span when recording. `name` must be a
// string literal.
#define BDS_TIMED_SCOPE(name)                                                         \
  static const ::bds::telemetry::HistogramHandle BDS_TELEMETRY_CONCAT(                \
      bds_timed_scope_handle_, __LINE__) =                                            \
      ::bds::telemetry::MetricsRegistry::Global().RegisterHistogram(name);            \
  ::bds::telemetry::ScopedTimer BDS_TELEMETRY_CONCAT(bds_timed_scope_, __LINE__)(     \
      name, BDS_TELEMETRY_CONCAT(bds_timed_scope_handle_, __LINE__))

#endif  // BDS_SRC_TELEMETRY_TELEMETRY_H_
