#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/telemetry/json.h"

namespace bds {
namespace telemetry {

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kArrival:
      return "arrival";
    case FlightEventKind::kAdmission:
      return "admission";
    case FlightEventKind::kSchedule:
      return "schedule";
    case FlightEventKind::kRateChange:
      return "rate_change";
    case FlightEventKind::kFaultHit:
      return "fault";
    case FlightEventKind::kCancel:
      return "cancel";
    case FlightEventKind::kCompletion:
      return "completion";
    case FlightEventKind::kRetire:
      return "retire";
  }
  return "unknown";
}

struct FlightRecorder::Impl {
  mutable std::mutex mu;
  std::unordered_map<JobId, FlightJournal> journals;
  // Completed, uninteresting journals ordered by (duration, job): begin() is
  // the fastest completion — the first to evict, so the slow tail survives.
  std::set<std::pair<double, JobId>> evictable;
  int64_t events = 0;
  int64_t dropped_events = 0;
  int64_t dropped_transfers = 0;
  int64_t evicted_transfers = 0;

  // Returns the journal for `job`, creating it (evicting if needed) when
  // absent. nullptr when the table is full of un-evictable (live or
  // interesting) journals — the caller counts the drop.
  FlightJournal* FindOrCreate(JobId job, const FlightRecorderOptions& options) {
    auto it = journals.find(job);
    if (it != journals.end()) {
      return &it->second;
    }
    if (journals.size() >= options.max_transfers) {
      // Evict the fastest completed uninteresting journal; skip (and drop)
      // stale entries whose journal became interesting after completion.
      bool evicted = false;
      while (!evictable.empty()) {
        auto e = *evictable.begin();
        evictable.erase(evictable.begin());
        auto jt = journals.find(e.second);
        if (jt == journals.end() || jt->second.interesting()) {
          continue;
        }
        events -= static_cast<int64_t>(jt->second.events.size());
        journals.erase(jt);
        ++evicted_transfers;
        evicted = true;
        break;
      }
      if (!evicted) {
        ++dropped_transfers;
        return nullptr;
      }
    }
    FlightJournal& j = journals[job];
    j.job = job;
    return &j;
  }

  void Append(FlightJournal* j, const FlightEvent& event,
              const FlightRecorderOptions& options) {
    if (j == nullptr) {
      return;
    }
    if (j->events.size() >= options.max_events_per_transfer) {
      ++j->dropped_events;
      ++dropped_events;
      return;
    }
    j->events.push_back(event);
    ++events;
  }

  void MarkInteresting(FlightJournal* j) {
    if (j == nullptr || j->fault_touched) {
      return;
    }
    j->fault_touched = true;
    if (j->completed) {
      evictable.erase({j->duration_seconds, j->job});
    }
  }
};

FlightRecorder::FlightRecorder() : impl_(new Impl) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // Leaked on purpose.
  return *recorder;
}

void FlightRecorder::Start(const FlightRecorderOptions& options) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->journals.clear();
    impl_->evictable.clear();
    impl_->events = 0;
    impl_->dropped_events = 0;
    impl_->dropped_transfers = 0;
    impl_->evicted_transfers = 0;
  }
  options_ = options;
  rate_budget_.store(options.max_rate_events, std::memory_order_relaxed);
  rate_dropped_.store(0, std::memory_order_relaxed);
  active_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::Stop() { active_.store(false, std::memory_order_relaxed); }

void FlightRecorder::Arrival(JobId job, SimTime t, int source_dc, int num_dests,
                             int64_t num_blocks, double bytes) {
  if (!active()) {
    return;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  FlightEvent e;
  e.kind = FlightEventKind::kArrival;
  e.time = t;
  e.v0 = static_cast<double>(source_dc);
  e.v1 = static_cast<double>(num_dests);
  e.v2 = static_cast<double>(num_blocks);
  e.v3 = bytes;
  impl_->Append(impl_->FindOrCreate(job, options_), e, options_);
}

void FlightRecorder::AdmissionVerdict(JobId job, SimTime t, const char* verdict,
                                      const char* reason, int64_t backlog_deliveries) {
  if (!active()) {
    return;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  FlightJournal* j = impl_->FindOrCreate(job, options_);
  FlightEvent e;
  e.kind = FlightEventKind::kAdmission;
  e.time = t;
  e.detail = verdict;
  e.detail2 = reason;
  e.v0 = static_cast<double>(backlog_deliveries);
  impl_->Append(j, e, options_);
  if (j != nullptr && std::strcmp(verdict, "reject") == 0) {
    j->rejected = true;
    if (j->completed) {
      impl_->evictable.erase({j->duration_seconds, j->job});
    }
  }
}

void FlightRecorder::Schedule(JobId job, SimTime t, int64_t cycle, const char* rung,
                              ServerId src, ServerId dst, double rate, int64_t num_blocks) {
  if (!active()) {
    return;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  FlightEvent e;
  e.kind = FlightEventKind::kSchedule;
  e.time = t;
  e.cycle = cycle;
  e.detail = rung;
  e.v0 = static_cast<double>(src);
  e.v1 = static_cast<double>(dst);
  e.v2 = rate;
  e.v3 = static_cast<double>(num_blocks);
  impl_->Append(impl_->FindOrCreate(job, options_), e, options_);
}

void FlightRecorder::RateChange(JobId job, SimTime t, double old_rate, double new_rate) {
  if (!active()) {
    return;
  }
  // Hot-path guard: once the global changepoint budget is spent, the cost per
  // change is two relaxed atomic ops — no lock, no map lookup.
  if (rate_budget_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    rate_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  // Changepoints never create journals: a flow whose job was not journaled
  // (table full, or a non-controller flow in a bench) is not worth a slot.
  auto it = impl_->journals.find(job);
  if (it == impl_->journals.end()) {
    return;
  }
  FlightEvent e;
  e.kind = FlightEventKind::kRateChange;
  e.time = t;
  e.v0 = old_rate;
  e.v1 = new_rate;
  impl_->Append(&it->second, e, options_);
}

void FlightRecorder::FaultHit(JobId job, SimTime t, const char* fault_kind, int64_t subject) {
  if (!active()) {
    return;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  FlightJournal* j = impl_->FindOrCreate(job, options_);
  FlightEvent e;
  e.kind = FlightEventKind::kFaultHit;
  e.time = t;
  e.detail = fault_kind;
  e.v0 = static_cast<double>(subject);
  impl_->Append(j, e, options_);
  impl_->MarkInteresting(j);
}

void FlightRecorder::Cancel(JobId job, SimTime t, const char* reason,
                            int64_t credited_blocks) {
  if (!active()) {
    return;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  FlightEvent e;
  e.kind = FlightEventKind::kCancel;
  e.time = t;
  e.detail = reason;
  e.v0 = static_cast<double>(credited_blocks);
  impl_->Append(impl_->FindOrCreate(job, options_), e, options_);
}

void FlightRecorder::Completion(JobId job, SimTime t, double duration_seconds) {
  if (!active()) {
    return;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  FlightJournal* j = impl_->FindOrCreate(job, options_);
  FlightEvent e;
  e.kind = FlightEventKind::kCompletion;
  e.time = t;
  e.v0 = duration_seconds;
  impl_->Append(j, e, options_);
  if (j != nullptr && !j->completed) {
    j->completed = true;
    j->duration_seconds = duration_seconds;
    if (!j->interesting()) {
      impl_->evictable.insert({duration_seconds, job});
    }
  }
}

void FlightRecorder::Retire(JobId job, SimTime t) {
  if (!active()) {
    return;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  // Retirement never creates a journal; it only annotates an existing one.
  auto it = impl_->journals.find(job);
  if (it == impl_->journals.end()) {
    return;
  }
  FlightEvent e;
  e.kind = FlightEventKind::kRetire;
  e.time = t;
  impl_->Append(&it->second, e, options_);
}

size_t FlightRecorder::num_transfers() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->journals.size();
}

int64_t FlightRecorder::num_events() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->events;
}

int64_t FlightRecorder::dropped_events() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->dropped_events;
}

int64_t FlightRecorder::evicted_transfers() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->evicted_transfers;
}

int64_t FlightRecorder::rate_events_dropped() const {
  return rate_dropped_.load(std::memory_order_relaxed);
}

std::vector<FlightJournal> FlightRecorder::Journals() const {
  std::vector<FlightJournal> out;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    out.reserve(impl_->journals.size());
    for (const auto& [job, j] : impl_->journals) {
      out.push_back(j);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightJournal& a, const FlightJournal& b) { return a.job < b.job; });
  return out;
}

Status FlightRecorder::WriteJsonl(const std::string& path) const {
  std::vector<FlightJournal> journals = Journals();
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    os << "{\"kind\":\"meta\",\"schema\":\"bds-flight-v1\",\"transfers\":"
       << impl_->journals.size() << ",\"events\":" << impl_->events
       << ",\"dropped_events\":" << impl_->dropped_events
       << ",\"dropped_transfers\":" << impl_->dropped_transfers
       << ",\"evicted_transfers\":" << impl_->evicted_transfers
       << ",\"rate_events_dropped\":" << rate_events_dropped()
       // Once the budget is spent the rate observer uninstalls itself, so
       // later changepoints are not even counted; this flag is the honest
       // "rate coverage is truncated" signal, not rate_events_dropped.
       << ",\"rate_budget_exhausted\":"
       << (rate_budget_.load(std::memory_order_relaxed) <= 0 ? "true" : "false") << "}\n";
  }
  for (const FlightJournal& j : journals) {
    os << "{\"kind\":\"transfer\",\"job\":" << j.job
       << ",\"rejected\":" << (j.rejected ? "true" : "false")
       << ",\"fault_touched\":" << (j.fault_touched ? "true" : "false")
       << ",\"completed\":" << (j.completed ? "true" : "false") << ",\"duration_s\":";
    AppendJsonDouble(os, j.duration_seconds);
    os << ",\"dropped_events\":" << j.dropped_events << ",\"events\":[";
    bool first = true;
    for (const FlightEvent& e : j.events) {
      if (!first) {
        os << ",";
      }
      first = false;
      os << "{\"e\":";
      AppendJsonString(os, FlightEventKindName(e.kind));
      os << ",\"t\":";
      AppendJsonDouble(os, e.time);
      switch (e.kind) {
        case FlightEventKind::kArrival:
          os << ",\"src_dc\":" << static_cast<int64_t>(e.v0)
             << ",\"dests\":" << static_cast<int64_t>(e.v1)
             << ",\"blocks\":" << static_cast<int64_t>(e.v2) << ",\"bytes\":";
          AppendJsonDouble(os, e.v3);
          break;
        case FlightEventKind::kAdmission:
          os << ",\"verdict\":";
          AppendJsonString(os, e.detail);
          os << ",\"reason\":";
          AppendJsonString(os, e.detail2);
          os << ",\"backlog\":" << static_cast<int64_t>(e.v0);
          break;
        case FlightEventKind::kSchedule:
          os << ",\"cycle\":" << e.cycle << ",\"rung\":";
          AppendJsonString(os, e.detail);
          os << ",\"src\":" << static_cast<int64_t>(e.v0)
             << ",\"dst\":" << static_cast<int64_t>(e.v1) << ",\"rate\":";
          AppendJsonDouble(os, e.v2);
          os << ",\"blocks\":" << static_cast<int64_t>(e.v3);
          break;
        case FlightEventKind::kRateChange:
          os << ",\"old_rate\":";
          AppendJsonDouble(os, e.v0);
          os << ",\"new_rate\":";
          AppendJsonDouble(os, e.v1);
          break;
        case FlightEventKind::kFaultHit:
          os << ",\"fault\":";
          AppendJsonString(os, e.detail);
          os << ",\"subject\":" << static_cast<int64_t>(e.v0);
          break;
        case FlightEventKind::kCancel:
          os << ",\"reason\":";
          AppendJsonString(os, e.detail);
          os << ",\"credited\":" << static_cast<int64_t>(e.v0);
          break;
        case FlightEventKind::kCompletion:
          os << ",\"duration_s\":";
          AppendJsonDouble(os, e.v0);
          break;
        case FlightEventKind::kRetire:
          break;
      }
      os << "}";
    }
    os << "]}\n";
  }
  return WriteFile(path, os.str());
}

}  // namespace telemetry
}  // namespace bds
