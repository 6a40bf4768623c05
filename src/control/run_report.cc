#include "src/control/run_report.h"

#include <algorithm>

#include "src/common/digest.h"

namespace bds {

std::vector<double> RunReport::ServerCompletionMinutes() const {
  std::vector<double> out;
  out.reserve(server_completion.size());
  for (const auto& [server, t] : server_completion) {
    out.push_back(ToMinutes(t));
  }
  return out;
}

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kDrained:
      return "drained";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kWedged:
      return "wedged";
    case StopReason::kAborted:
      return "aborted";
  }
  return "unknown";
}

uint64_t RunReport::Fingerprint() const {
  Digest d;
  d.Mix(completed ? 1 : 0);
  d.Mix(static_cast<uint64_t>(stop_reason));
  d.MixDouble(completion_time);
  d.Mix(static_cast<uint64_t>(deliveries));
  // The per-cycle history may be truncated in bounded-memory mode, so the
  // fingerprint covers cycles through the incrementally-maintained digest
  // (same fields CompletionLedger::CloseCycle mixes) rather than the retained vector.
  d.Mix(static_cast<uint64_t>(total_cycles));
  d.Mix(cycles_digest);
  d.Mix(static_cast<uint64_t>(jobs_completed_total));
  d.Mix(completion_digest);
  d.Mix(static_cast<uint64_t>(retired_jobs));
  d.Mix(static_cast<uint64_t>(retired_blocks));
  d.Mix(static_cast<uint64_t>(peak_live_pending));
  d.Mix(static_cast<uint64_t>(peak_live_jobs));
  d.Mix(static_cast<uint64_t>(peak_live_flows));
  auto mix_sorted = [&d](const auto& map) {
    std::vector<std::pair<int64_t, double>> entries;
    entries.reserve(map.size());
    for (const auto& [k, v] : map) {
      entries.emplace_back(static_cast<int64_t>(k), v);
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [k, v] : entries) {
      d.Mix(static_cast<uint64_t>(k));
      d.MixDouble(v);
    }
  };
  mix_sorted(job_completion);
  mix_sorted(dc_completion);
  for (const auto& [server, t] : server_completion) {  // Already sorted.
    d.Mix(static_cast<uint64_t>(server));
    d.MixDouble(t);
  }
  {
    std::vector<std::pair<ServerId, ReplicaState::ServerOriginStats>> entries(
        origin_stats.begin(), origin_stats.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [server, s] : entries) {
      d.Mix(static_cast<uint64_t>(server));
      d.Mix(static_cast<uint64_t>(s.from_origin));
      d.Mix(static_cast<uint64_t>(s.total));
    }
  }
  d.Mix(static_cast<uint64_t>(faults.link_events));
  d.Mix(static_cast<uint64_t>(faults.flows_killed));
  d.Mix(static_cast<uint64_t>(faults.reports_lost));
  d.Mix(static_cast<uint64_t>(faults.reports_forced));
  d.Mix(static_cast<uint64_t>(faults.pushes_dropped));
  d.Mix(static_cast<uint64_t>(faults.pushes_escalated));
  d.Mix(static_cast<uint64_t>(faults.blocks_corrupted));
  // Mix presence separately from the value so "not measured" and a measured
  // 0.0 stay distinguishable. The telemetry snapshot is deliberately NOT
  // mixed: it contains wall-clock latency histograms.
  d.Mix(max_link_overshoot.has_value() ? 1 : 0);
  d.MixDouble(max_link_overshoot.value_or(0.0));
  return d.h;
}

}  // namespace bds
