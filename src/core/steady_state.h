// Long-running service mode: open-loop arrivals into a live BdsService with
// overload protection, instead of the batch generate → drain → report shape
// the rest of the harness uses.
//
// RunSteadyState wires four pieces configured here onto the controller:
// an ArrivalProcess feeding jobs for `duration` simulated seconds, the
// AdmissionController gating them, the CycleWatchdog pricing every cycle and
// driving the degradation ladder, and bounded-memory retirement so a
// multi-simulated-day soak runs in O(live work). The SteadyStateReport pulls
// the service-level outcome together: completion-time percentiles, ladder
// occupancy and transitions, admission counts, and memory high-water marks.

#ifndef BDS_SRC_CORE_STEADY_STATE_H_
#define BDS_SRC_CORE_STEADY_STATE_H_

#include <array>
#include <string>
#include <vector>

#include "src/control/controller.h"
#include "src/control/overload.h"
#include "src/scheduler/admission.h"
#include "src/telemetry/timeseries.h"
#include "src/workload/arrival_process.h"

namespace bds {

struct SteadyStateOptions {
  // Arrivals are generated for `duration` simulated seconds; with `drain`
  // the run then continues (no new arrivals) until the backlog empties or
  // `drain_limit` more seconds pass.
  SimTime duration = Hours(1.0);
  bool drain = true;
  SimTime drain_limit = Hours(2.0);

  // Arrival timing and job shapes. num_dcs, first_job_id, and block_size are
  // filled in from the service/topology; everything else is honoured as-is.
  ArrivalProcessOptions arrivals;

  // Admission control and the cycle-deadline watchdog. Both default to
  // disabled — set `enabled` to engage them.
  AdmissionOptions admission;
  OverloadOptions overload;

  // Bounded memory: retire completed jobs and cap the retained CycleStats
  // (0 keeps all).
  bool retire_completed = true;
  int64_t max_cycle_stats = 2048;

  // Simulated-time SLO sampler + burn-rate alerts (disabled by default;
  // purely observational — never enters the Fingerprint).
  telemetry::TimeseriesOptions timeseries;
};

struct SteadyStateReport {
  RunReport run;

  // Arrival / admission outcome.
  int64_t jobs_generated = 0;
  AdmissionStats admission;
  double estimated_service_rate = 0.0;  // Deliveries per cycle (EWMA).

  // Completion times of admitted jobs, in minutes.
  int64_t jobs_completed = 0;
  double completion_p50_minutes = 0.0;
  double completion_p95_minutes = 0.0;
  double completion_p99_minutes = 0.0;
  double completion_mean_minutes = 0.0;
  double completion_max_minutes = 0.0;

  // Watchdog / degradation ladder.
  int64_t cycle_overruns = 0;
  double worst_overrun_seconds = 0.0;
  std::array<int64_t, kNumDegradationRungs> rung_cycles{};
  std::vector<RungTransition> transitions;
  uint64_t transition_digest = 0;

  // Bounded-memory evidence (with run's peaks and retired counts): the live
  // residue at the end is small.
  int64_t live_jobs_at_end = 0;
  int64_t live_pending_at_end = 0;

  // SLO time-series outcome (only populated when options.timeseries.enabled).
  // Deliberately OUTSIDE Fingerprint(): the sampler is observational and the
  // CPU series it folds are wall-clock-derived.
  int64_t timeseries_samples = 0;
  double burn_fast_at_end = 0.0;
  double burn_slow_at_end = 0.0;
  std::vector<telemetry::SloAlert> slo_alerts;

  // run.Fingerprint() extended with the transition log, admission counts,
  // and the generated-job count — the full determinism surface of a
  // steady-state run.
  uint64_t Fingerprint() const;

  // Multi-line human-readable summary for benches and examples.
  std::string ToString() const;
};

Status ValidateSteadyStateOptions(const SteadyStateOptions& options);

}  // namespace bds

#endif  // BDS_SRC_CORE_STEADY_STATE_H_
