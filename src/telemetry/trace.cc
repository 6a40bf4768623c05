#include "src/telemetry/trace.h"

#include <chrono>
#include <mutex>
#include <sstream>
#include <vector>

#include "src/telemetry/json.h"

namespace bds {
namespace telemetry {

namespace {

// Small dense thread ids for trace output (the OS tid is noisy and varies
// run to run; a dense id makes traces from repeated runs comparable).
std::atomic<int> g_next_tid{0};
int ThisThreadTraceId() {
  thread_local int tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct TraceRecorder::Impl {
  struct Event {
    const char* name;
    const char* category;
    char phase;  // 'i' instant, 'X' complete.
    int tid;
    int64_t ts_ns;
    int64_t dur_ns;
    int nargs;
    TraceArg args[kMaxArgs];
  };

  // The mutex guards control-plane operations only (Start / Clear / export).
  // The append path is lock-free: one relaxed claim on `next` either lands
  // the event in a pre-sized slot or counts as a drop — the recorder sits on
  // the simulator's per-event path, where a mutex pair per instant is
  // measurable. Exports and size/dropped reads are exact once writer threads
  // are quiescent (joined or stopped), the same contract metric snapshots
  // already carry.
  mutable std::mutex mu;
  std::vector<Event> ring;  // Pre-sized to `capacity` by Start().
  int64_t capacity = 0;
  std::atomic<int64_t> next{0};  // Slots claimed; anything past capacity dropped.
  std::atomic<int64_t> origin_ns{0};

  void Append(const Event& event) {
    int64_t idx = next.fetch_add(1, std::memory_order_relaxed);
    if (idx >= capacity) {
      return;
    }
    ring[static_cast<size_t>(idx)] = event;
  }

  // Claims a drop slot if the ring is already full, so callers can skip the
  // clock read and event construction for an event that cannot land. The
  // load-then-add is racy only against other drops: Append's own bound check
  // is what guarantees no slot is written twice.
  bool DropIfFull() {
    if (next.load(std::memory_order_relaxed) >= capacity) {
      next.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  int64_t buffered() const {
    int64_t n = next.load(std::memory_order_relaxed);
    return n < capacity ? n : capacity;
  }

  int64_t num_dropped() const {
    int64_t n = next.load(std::memory_order_relaxed) - capacity;
    return n > 0 ? n : 0;
  }
};

TraceRecorder::TraceRecorder() : impl_(new Impl) {}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();  // Leaked on purpose.
  return *recorder;
}

void TraceRecorder::Start(size_t capacity) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->ring.assign(capacity, Impl::Event{});
    impl_->capacity = static_cast<int64_t>(capacity);
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->origin_ns.store(SteadyNowNs(), std::memory_order_relaxed);
  }
  active_.store(true, std::memory_order_relaxed);
  SetEnabled(true);
}

void TraceRecorder::Stop() { active_.store(false, std::memory_order_relaxed); }

int64_t TraceRecorder::NowNs() const {
  return SteadyNowNs() - impl_->origin_ns.load(std::memory_order_relaxed);
}

void TraceRecorder::Instant(const char* name, const char* category,
                            std::initializer_list<TraceArg> args) {
  // Check for a full ring before reading the clock: once the ring fills, a
  // long run's remaining instants would otherwise each pay a steady_clock
  // read just to be dropped.
  if (!active() || impl_->DropIfFull()) {
    return;
  }
  Complete(name, category, NowNs(), /*dur_ns=*/0, args);
}

void TraceRecorder::Complete(const char* name, const char* category, int64_t ts_ns,
                             int64_t dur_ns, std::initializer_list<TraceArg> args) {
  if (!active() || impl_->DropIfFull()) {
    return;
  }
  Impl::Event event;
  event.name = name;
  event.category = category;
  event.phase = dur_ns > 0 ? 'X' : 'i';
  event.tid = ThisThreadTraceId();
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  event.nargs = 0;
  for (const TraceArg& arg : args) {
    if (event.nargs >= kMaxArgs) {
      break;
    }
    event.args[event.nargs++] = arg;
  }
  impl_->Append(event);
}

size_t TraceRecorder::size() const { return static_cast<size_t>(impl_->buffered()); }

size_t TraceRecorder::dropped() const {
  return static_cast<size_t>(impl_->num_dropped());
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->next.store(0, std::memory_order_relaxed);
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    os << "{\"traceEvents\":[";
    const int64_t n = impl_->buffered();
    for (int64_t i = 0; i < n; ++i) {
      const Impl::Event& event = impl_->ring[static_cast<size_t>(i)];
      if (i > 0) {
        os << ",\n";
      }
      os << "{\"name\":";
      AppendJsonString(os, event.name);
      os << ",\"cat\":";
      AppendJsonString(os, event.category);
      os << ",\"ph\":\"" << event.phase << "\"";
      os << ",\"pid\":1,\"tid\":" << event.tid;
      // Chrome traces use microseconds.
      os << ",\"ts\":";
      AppendJsonDouble(os, static_cast<double>(event.ts_ns) / 1e3);
      if (event.phase == 'X') {
        os << ",\"dur\":";
        AppendJsonDouble(os, static_cast<double>(event.dur_ns) / 1e3);
      } else {
        os << ",\"s\":\"t\"";  // Instant scope: thread.
      }
      if (event.nargs > 0) {
        os << ",\"args\":{";
        for (int i = 0; i < event.nargs; ++i) {
          if (i > 0) {
            os << ",";
          }
          AppendJsonString(os, event.args[i].key);
          os << ":";
          AppendJsonDouble(os, event.args[i].value);
        }
        os << "}";
      }
      os << "}";
    }
    os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
       << impl_->num_dropped() << "}}";
  }
  return WriteFile(path, os.str());
}

Status TraceRecorder::WriteRunSummary(const std::string& path,
                                      const MetricsSnapshot& snapshot) const {
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    os << "{\"kind\":\"meta\",\"trace_events\":" << impl_->buffered()
       << ",\"dropped_events\":" << impl_->num_dropped() << "}\n";
  }
  for (const auto& c : snapshot.counters) {
    os << "{\"kind\":\"counter\",\"name\":";
    AppendJsonString(os, c.name.c_str());
    os << ",\"value\":" << c.value << "}\n";
  }
  for (const auto& g : snapshot.gauges) {
    os << "{\"kind\":\"gauge\",\"name\":";
    AppendJsonString(os, g.name.c_str());
    os << ",\"value\":";
    AppendJsonDouble(os, g.value);
    os << "}\n";
  }
  for (const auto& h : snapshot.histograms) {
    os << "{\"kind\":\"histogram\",\"name\":";
    AppendJsonString(os, h.name.c_str());
    os << ",\"count\":" << h.hist.total() << ",\"sum\":";
    AppendJsonDouble(os, h.sum);
    os << ",\"max\":";
    AppendJsonDouble(os, h.max);
    os << "}\n";
  }
  return WriteFile(path, os.str());
}

}  // namespace telemetry
}  // namespace bds
