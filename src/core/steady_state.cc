#include "src/core/steady_state.h"

#include <cstdio>
#include <sstream>

#include "src/common/digest.h"

namespace bds {

Status ValidateSteadyStateOptions(const SteadyStateOptions& options) {
  if (options.duration <= 0.0) {
    return InvalidArgumentError("RunSteadyState: duration must be positive");
  }
  if (options.drain && options.drain_limit < 0.0) {
    return InvalidArgumentError("RunSteadyState: drain_limit must be non-negative");
  }
  if (options.max_cycle_stats < 0) {
    return InvalidArgumentError("RunSteadyState: max_cycle_stats must be >= 0");
  }
  BDS_RETURN_IF_ERROR(telemetry::ValidateTimeseriesOptions(options.timeseries));
  return Status::Ok();
}

uint64_t SteadyStateReport::Fingerprint() const {
  Digest d{run.Fingerprint()};
  d.Mix(transition_digest);
  d.Mix(static_cast<uint64_t>(jobs_generated));
  d.Mix(static_cast<uint64_t>(admission.offered));
  d.Mix(static_cast<uint64_t>(admission.accepted));
  d.Mix(static_cast<uint64_t>(admission.rejected));
  d.Mix(static_cast<uint64_t>(admission.deferred));
  return d.h;
}

std::string SteadyStateReport::ToString() const {
  std::ostringstream os;
  char buf[256];
  os << "steady-state: stop=" << StopReasonName(run.stop_reason)
     << " cycles=" << run.total_cycles << "\n";
  std::snprintf(buf, sizeof(buf),
                "jobs: generated=%lld offered=%lld accepted=%lld rejected=%lld "
                "deferred=%lld completed=%lld\n",
                static_cast<long long>(jobs_generated),
                static_cast<long long>(admission.offered),
                static_cast<long long>(admission.accepted),
                static_cast<long long>(admission.rejected),
                static_cast<long long>(admission.deferred),
                static_cast<long long>(jobs_completed));
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "completion minutes: p50=%.2f p95=%.2f p99=%.2f mean=%.2f max=%.2f\n",
                completion_p50_minutes, completion_p95_minutes, completion_p99_minutes,
                completion_mean_minutes, completion_max_minutes);
  os << buf;
  std::snprintf(buf, sizeof(buf), "overload: overruns=%lld worst_overrun=%.2fs rung_cycles=[",
                static_cast<long long>(cycle_overruns), worst_overrun_seconds);
  os << buf;
  for (size_t r = 0; r < rung_cycles.size(); ++r) {
    os << (r == 0 ? "" : " ") << DegradationRungName(static_cast<DegradationRung>(r)) << "="
       << rung_cycles[r];
  }
  os << "] transitions=" << transitions.size() << "\n";
  std::snprintf(buf, sizeof(buf),
                "memory: peak_pending=%lld peak_jobs=%lld peak_flows=%lld retired_jobs=%lld "
                "retired_blocks=%lld live_at_end(jobs=%lld pending=%lld)\n",
                static_cast<long long>(run.peak_live_pending),
                static_cast<long long>(run.peak_live_jobs),
                static_cast<long long>(run.peak_live_flows),
                static_cast<long long>(run.retired_jobs),
                static_cast<long long>(run.retired_blocks),
                static_cast<long long>(live_jobs_at_end),
                static_cast<long long>(live_pending_at_end));
  os << buf;
  if (timeseries_samples > 0) {
    int64_t active = 0;
    for (const telemetry::SloAlert& a : slo_alerts) {
      if (a.active()) {
        ++active;
      }
    }
    std::snprintf(buf, sizeof(buf),
                  "slo: samples=%lld alerts=%lld (active=%lld) burn_fast=%.2f burn_slow=%.2f\n",
                  static_cast<long long>(timeseries_samples),
                  static_cast<long long>(slo_alerts.size()), static_cast<long long>(active),
                  burn_fast_at_end, burn_slow_at_end);
    os << buf;
  }
  return os.str();
}

}  // namespace bds
