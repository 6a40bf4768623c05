#include "src/telemetry/timeseries.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/telemetry/json.h"

namespace bds {
namespace telemetry {

namespace {

constexpr double kEwmaAlpha = 0.2;

// Fixed series layout; link_util_* series follow these.
enum SeriesIndex {
  kActiveFlows = 0,
  kPendingBlocks,
  kRung,
  kOffered,
  kAccepted,
  kRejected,
  kDeferred,
  kSelectCpu,
  kSolveCpu,
  kMergeCpu,
  kCompletionEwma,
  kSloGood,
  kSloBad,
  kBurnFast,
  kBurnSlow,
  kNumFixedSeries,
};

const char* kFixedSeriesNames[kNumFixedSeries] = {
    "active_flows", "pending_blocks", "rung",      "offered",          "accepted",
    "rejected",     "deferred",       "select_cpu", "solve_cpu",       "merge_cpu",
    "completion_ewma_s", "slo_good",  "slo_bad",   "burn_fast",        "burn_slow",
};

}  // namespace

void RingSeries::Push(double v) {
  ++total_;
  if (buf_.size() < capacity_) {
    buf_.push_back(v);
    return;
  }
  if (capacity_ == 0) {
    return;  // Degenerate ring: everything pushed is dropped.
  }
  buf_[head_] = v;
  head_ = (head_ + 1) % capacity_;
}

double RingSeries::at(size_t i) const {
  // Until the ring wraps head_ is 0 and at(i) == buf_[i]; afterwards head_
  // points at the oldest retained value.
  return buf_[(head_ + i) % buf_.size()];
}

double RingSeries::Latest() const {
  if (buf_.empty()) {
    return 0.0;
  }
  return at(buf_.size() - 1);
}

double RingSeries::TailSum(size_t n) const {
  n = std::min(n, buf_.size());
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += at(buf_.size() - 1 - i);
  }
  return sum;
}

Status ValidateTimeseriesOptions(const TimeseriesOptions& options) {
  if (!options.enabled) {
    return Status::Ok();
  }
  if (options.sample_dt <= 0.0) {
    return InvalidArgumentError("timeseries: sample_dt must be positive");
  }
  if (options.capacity == 0) {
    return InvalidArgumentError("timeseries: capacity must be positive");
  }
  if (options.slo_minutes <= 0.0) {
    return InvalidArgumentError("timeseries: slo_minutes must be positive");
  }
  if (options.objective <= 0.0 || options.objective >= 1.0) {
    return InvalidArgumentError("timeseries: objective must be in (0, 1)");
  }
  if (options.fast_window <= 0.0 || options.slow_window < options.fast_window) {
    return InvalidArgumentError("timeseries: need 0 < fast_window <= slow_window");
  }
  if (options.slow_window / options.sample_dt >
      static_cast<double>(options.capacity)) {
    return InvalidArgumentError("timeseries: slow_window exceeds ring capacity");
  }
  if (options.burn_threshold <= 0.0 || options.clear_factor <= 0.0 ||
      options.clear_factor > 1.0 || options.clear_samples < 1) {
    return InvalidArgumentError("timeseries: bad alert thresholds");
  }
  return Status::Ok();
}

SloTimeseries::SloTimeseries(const TimeseriesOptions& options) : options_(options) {
  series_.reserve(kNumFixedSeries);
  for (int i = 0; i < kNumFixedSeries; ++i) {
    series_.emplace_back(kFixedSeriesNames[i], RingSeries(options_.capacity));
  }
  first_link_series_ = series_.size();
  next_sample_time_ = options_.sample_dt;
  fast_samples_ = static_cast<size_t>(
      std::max(1.0, std::round(options_.fast_window / options_.sample_dt)));
  slow_samples_ = static_cast<size_t>(
      std::max(1.0, std::round(options_.slow_window / options_.sample_dt)));
}

void SloTimeseries::SetTrackedLinks(const std::vector<LinkId>& links) {
  series_.resize(first_link_series_);
  tracked_links_ = links;
  for (LinkId l : links) {
    series_.emplace_back("link_util_" + std::to_string(l), RingSeries(options_.capacity));
  }
}

void SloTimeseries::ObserveCompletion(SimTime now, double duration_seconds) {
  (void)now;
  if (duration_seconds <= options_.slo_minutes * 60.0) {
    ++good_since_sample_;
  } else {
    ++bad_since_sample_;
  }
  if (!ewma_seeded_) {
    completion_ewma_ = duration_seconds;
    ewma_seeded_ = true;
  } else {
    completion_ewma_ += kEwmaAlpha * (duration_seconds - completion_ewma_);
  }
}

void SloTimeseries::SampleUpTo(SimTime now, const SloSampleInput& in) {
  if (!options_.enabled) {
    return;
  }
  while (next_sample_time_ <= now + kFluidEpsilon) {
    const SimTime t = next_sample_time_;
    next_sample_time_ += options_.sample_dt;

    Fold(kActiveFlows, static_cast<double>(in.active_flows));
    Fold(kPendingBlocks, static_cast<double>(in.pending_blocks));
    Fold(kRung, static_cast<double>(in.rung));
    // Counter deltas: with several boundaries inside one cycle, the first
    // boundary takes the whole delta and the rest see zero.
    Fold(kOffered, static_cast<double>(in.offered - prev_.offered));
    Fold(kAccepted, static_cast<double>(in.accepted - prev_.accepted));
    Fold(kRejected, static_cast<double>(in.rejected - prev_.rejected));
    Fold(kDeferred, static_cast<double>(in.deferred - prev_.deferred));
    Fold(kSelectCpu, in.select_cpu_seconds - prev_.select_cpu_seconds);
    Fold(kSolveCpu, in.solve_cpu_seconds - prev_.solve_cpu_seconds);
    Fold(kMergeCpu, in.merge_cpu_seconds - prev_.merge_cpu_seconds);
    Fold(kCompletionEwma, completion_ewma_);
    Fold(kSloGood, static_cast<double>(good_since_sample_));
    Fold(kSloBad, static_cast<double>(bad_since_sample_));
    prev_ = in;
    prev_.link_utilization.clear();  // Utilization is a gauge, not a counter.
    good_since_sample_ = 0;
    bad_since_sample_ = 0;
    for (size_t i = 0; i < tracked_links_.size(); ++i) {
      Fold(first_link_series_ + i,
           i < in.link_utilization.size() ? in.link_utilization[i] : 0.0);
    }

    // Burn rates over the fast and slow windows. No completions in a window
    // means no evidence of burn (0), not division by zero.
    const double budget = 1.0 - options_.objective;
    auto window_burn = [&](size_t n) {
      const double good = series_[kSloGood].second.TailSum(n);
      const double bad = series_[kSloBad].second.TailSum(n);
      const double total = good + bad;
      if (total <= 0.0) {
        return 0.0;
      }
      return (bad / total) / budget;
    };
    burn_fast_ = window_burn(fast_samples_);
    burn_slow_ = window_burn(slow_samples_);
    Fold(kBurnFast, burn_fast_);
    Fold(kBurnSlow, burn_slow_);

    if (!alert_active_) {
      if (burn_fast_ > options_.burn_threshold && burn_slow_ > options_.burn_threshold) {
        SloAlert a;
        a.fired_at = t;
        a.fired_sample = samples_;
        a.burn_fast = burn_fast_;
        a.burn_slow = burn_slow_;
        alerts_.push_back(a);
        alert_active_ = true;
        calm_streak_ = 0;
      }
    } else {
      const double clear_level = options_.burn_threshold * options_.clear_factor;
      if (burn_fast_ < clear_level && burn_slow_ < clear_level) {
        if (++calm_streak_ >= options_.clear_samples) {
          alerts_.back().cleared_at = t;
          alert_active_ = false;
          calm_streak_ = 0;
        }
      } else {
        calm_streak_ = 0;
      }
    }
    ++samples_;
  }
}

const RingSeries* SloTimeseries::series(const std::string& name) const {
  for (const auto& [n, s] : series_) {
    if (n == name) {
      return &s;
    }
  }
  return nullptr;
}

Status SloTimeseries::WriteJsonl(const std::string& path) const {
  std::ostringstream os;
  os << "{\"kind\":\"meta\",\"schema\":\"bds-slo-v1\",\"dt\":";
  AppendJsonDouble(os, options_.sample_dt);
  os << ",\"samples\":" << samples_ << ",\"capacity\":" << options_.capacity
     << ",\"slo_minutes\":";
  AppendJsonDouble(os, options_.slo_minutes);
  os << ",\"objective\":";
  AppendJsonDouble(os, options_.objective);
  os << ",\"burn_threshold\":";
  AppendJsonDouble(os, options_.burn_threshold);
  os << ",\"fast_window\":";
  AppendJsonDouble(os, options_.fast_window);
  os << ",\"slow_window\":";
  AppendJsonDouble(os, options_.slow_window);
  os << ",\"alerts\":" << alerts_.size() << "}\n";
  for (const auto& [name, s] : series_) {
    os << "{\"kind\":\"series\",\"name\":\"" << name
       << "\",\"first_index\":" << s.first_index() << ",\"dropped\":" << s.dropped()
       << ",\"values\":[";
    for (size_t i = 0; i < s.size(); ++i) {
      if (i > 0) {
        os << ",";
      }
      AppendJsonDouble(os, s.at(i));
    }
    os << "]}\n";
  }
  for (const SloAlert& a : alerts_) {
    os << "{\"kind\":\"alert\",\"fired_at\":";
    AppendJsonDouble(os, a.fired_at);
    os << ",\"cleared_at\":";
    AppendJsonDouble(os, a.cleared_at);
    os << ",\"fired_sample\":" << a.fired_sample << ",\"burn_fast\":";
    AppendJsonDouble(os, a.burn_fast);
    os << ",\"burn_slow\":";
    AppendJsonDouble(os, a.burn_slow);
    os << "}\n";
  }
  return WriteFile(path, os.str());
}

}  // namespace telemetry
}  // namespace bds
