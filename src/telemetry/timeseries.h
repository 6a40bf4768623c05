// Simulated-time SLO time-series: a fixed-Δt sampler on the simulator clock
// recording service health (active flows, pending blocks, degradation rung,
// admission accept/defer/reject rates, cycle CPU, completion-time EWMA,
// per-tracked-link utilization) into fixed-width ring series, plus a
// burn-rate detector over the job-completion SLO.
//
// Burn-rate semantics (the standard multi-window form): a completed job is
// "good" when its arrival-to-completion duration is <= slo_minutes. Each
// sample folds the completions since the previous sample into good/bad ring
// series; the burn of a window is (bad fraction over the window) divided by
// the error budget (1 - objective). An alert fires when BOTH the fast and
// the slow window burn above burn_threshold — the fast window gives latency,
// the slow window suppresses one-sample blips — and clears only after
// clear_samples consecutive samples with both burns below burn_threshold *
// clear_factor (hysteresis, so a hovering burn does not flap).
//
// Determinism contract: sampling only observes — the sampler never draws RNG
// or feeds back into decisions, and nothing here enters any Fingerprint().
// CPU-seconds series carry wall-clock-derived values, which is fine for the
// same reason RunReport::telemetry is fingerprint-excluded. Everything else
// (and in particular every alert) is simulation-determined.

#ifndef BDS_SRC_TELEMETRY_TIMESERIES_H_
#define BDS_SRC_TELEMETRY_TIMESERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace bds {
namespace telemetry {

// Fixed-capacity ring of doubles. Push never fails; once full the oldest
// value is overwritten and counted in dropped(). at(0) is the oldest retained
// value; first_index() is its index in the full pushed stream, so a consumer
// can recover absolute sample times from (t0, dt, first_index).
class RingSeries {
 public:
  RingSeries() = default;
  explicit RingSeries(size_t capacity) : capacity_(capacity) { buf_.reserve(capacity); }

  void Push(double v);

  size_t capacity() const { return capacity_; }
  size_t size() const { return buf_.size(); }
  int64_t total_pushed() const { return total_; }
  int64_t dropped() const { return total_ - static_cast<int64_t>(buf_.size()); }
  int64_t first_index() const { return dropped(); }
  double at(size_t i) const;       // i in [0, size()), oldest first.
  double Latest() const;           // 0.0 when empty.
  // Sum of the newest `n` values (n clamped to size()).
  double TailSum(size_t n) const;

 private:
  std::vector<double> buf_;
  size_t capacity_ = 0;
  size_t head_ = 0;  // Slot the NEXT push overwrites once full.
  int64_t total_ = 0;
};

// One burn-rate alert episode.
struct SloAlert {
  SimTime fired_at = 0.0;
  SimTime cleared_at = -1.0;  // -1 = still active when the run ended.
  int64_t fired_sample = 0;   // Sample index (full stream) at fire time.
  double burn_fast = 0.0;     // Fast/slow window burns at fire time.
  double burn_slow = 0.0;

  bool active() const { return cleared_at < 0.0; }
};

struct TimeseriesOptions {
  bool enabled = false;
  SimTime sample_dt = 60.0;  // Simulated seconds between samples.
  size_t capacity = 4096;    // Ring width per series.

  // SLO: completion duration <= slo_minutes is "good"; the service objective
  // is that at least `objective` of completions are good.
  double slo_minutes = 30.0;
  double objective = 0.99;
  SimTime fast_window = 300.0;   // 5 simulated minutes.
  SimTime slow_window = 3600.0;  // 1 simulated hour.
  double burn_threshold = 2.0;
  double clear_factor = 0.5;
  int clear_samples = 3;

  // When non-empty, RunSteadyState writes the bds-slo-v1 JSONL here.
  std::string jsonl_path;
};

Status ValidateTimeseriesOptions(const TimeseriesOptions& options);

// Snapshot of the quantities sampled each Δt; the owner (the controller)
// fills it at cycle boundaries. Counter fields are CUMULATIVE — the sampler
// differences them itself, so per-sample rates stay correct even when one
// cycle spans several Δt boundaries (each boundary then sees a zero delta).
struct SloSampleInput {
  int64_t active_flows = 0;
  int64_t pending_blocks = 0;
  int rung = 0;
  int64_t offered = 0;
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t deferred = 0;
  double select_cpu_seconds = 0.0;
  double solve_cpu_seconds = 0.0;
  double merge_cpu_seconds = 0.0;
  std::vector<double> link_utilization;  // One per tracked link, in order.
};

class SloTimeseries {
 public:
  SloTimeseries() : SloTimeseries(TimeseriesOptions{}) {}
  explicit SloTimeseries(const TimeseriesOptions& options);

  bool enabled() const { return options_.enabled; }
  const TimeseriesOptions& options() const { return options_; }

  // Names the tracked links (for series naming / export). Call once, before
  // the first sample; sizes the per-link utilization series.
  void SetTrackedLinks(const std::vector<LinkId>& links);
  const std::vector<LinkId>& tracked_links() const { return tracked_links_; }

  // Folds one completed job into the SLO counts and the completion EWMA.
  void ObserveCompletion(SimTime now, double duration_seconds);

  // Emits one sample per Δt boundary in (last sampled, now], all carrying the
  // current values of `in` (piecewise-constant between cycle boundaries).
  void SampleUpTo(SimTime now, const SloSampleInput& in);

  int64_t samples() const { return samples_; }
  double completion_ewma_seconds() const { return completion_ewma_; }
  double burn_fast() const { return burn_fast_; }  // As of the last sample.
  double burn_slow() const { return burn_slow_; }
  const std::vector<SloAlert>& alerts() const { return alerts_; }
  int64_t alerts_fired() const { return static_cast<int64_t>(alerts_.size()); }

  // Named series access (nullptr when the name is unknown). Names:
  // active_flows, pending_blocks, rung, offered, accepted, rejected,
  // deferred, select_cpu, solve_cpu, merge_cpu, completion_ewma_s, slo_good,
  // slo_bad, burn_fast, burn_slow, link_util_<id>.
  const RingSeries* series(const std::string& name) const;
  const std::vector<std::pair<std::string, RingSeries>>& all_series() const {
    return series_;
  }

  // JSONL: one bds-slo-v1 meta line, one line per series, one per alert.
  Status WriteJsonl(const std::string& path) const;

 private:
  void Fold(size_t index, double v) { series_[index].second.Push(v); }

  TimeseriesOptions options_;
  std::vector<LinkId> tracked_links_;
  std::vector<std::pair<std::string, RingSeries>> series_;
  size_t first_link_series_ = 0;  // Index of the first link_util_* series.

  SimTime next_sample_time_ = 0.0;
  int64_t samples_ = 0;

  // Completions folded since the last sample.
  int64_t good_since_sample_ = 0;
  int64_t bad_since_sample_ = 0;
  double completion_ewma_ = 0.0;
  bool ewma_seeded_ = false;

  // Previous cumulative counter values (for per-sample deltas).
  SloSampleInput prev_;

  // Burn-rate detector state.
  size_t fast_samples_ = 1;
  size_t slow_samples_ = 1;
  double burn_fast_ = 0.0;
  double burn_slow_ = 0.0;
  int calm_streak_ = 0;
  std::vector<SloAlert> alerts_;
  bool alert_active_ = false;
};

}  // namespace telemetry
}  // namespace bds

#endif  // BDS_SRC_TELEMETRY_TIMESERIES_H_
