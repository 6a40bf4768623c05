#include "src/workload/arrival_process.h"

#include <algorithm>
#include <cmath>

namespace bds {

namespace {

TraceGeneratorOptions ShapeOptions(const ArrivalProcessOptions& options) {
  TraceGeneratorOptions t;
  t.num_dcs = options.num_dcs;
  t.seed = options.seed ^ 0xA221BA1ULL;
  return t;
}

// Off-state rate multiplier keeping the long-run mean at 1:
//   burst_fraction * burst_factor + (1 - burst_fraction) * off = 1.
double OffFactor(const ArrivalProcessOptions& o) {
  const double f = o.burst_fraction;
  return std::max(0.0, (1.0 - f * o.burst_factor) / (1.0 - f));
}

}  // namespace

Status ValidateArrivalOptions(const ArrivalProcessOptions& options) {
  if (options.num_dcs < 2) {
    return InvalidArgumentError("ArrivalProcess: need at least 2 DCs");
  }
  if (options.jobs_per_hour <= 0.0) {
    return InvalidArgumentError("ArrivalProcess: jobs_per_hour must be positive");
  }
  if (options.block_size <= 0.0 || options.size_scale <= 0.0) {
    return InvalidArgumentError("ArrivalProcess: block size and size scale must be positive");
  }
  if (options.pattern == ArrivalPattern::kDiurnal &&
      (options.diurnal_amplitude < 0.0 || options.diurnal_amplitude > 1.0 ||
       options.diurnal_period <= 0.0)) {
    return InvalidArgumentError("ArrivalProcess: diurnal amplitude in [0,1], period > 0");
  }
  if (options.pattern == ArrivalPattern::kBursty &&
      (options.burst_factor < 1.0 || options.burst_fraction <= 0.0 ||
       options.burst_fraction >= 1.0 || options.mean_burst_seconds <= 0.0)) {
    return InvalidArgumentError(
        "ArrivalProcess: burst_factor >= 1, burst_fraction in (0,1), mean burst > 0");
  }
  return Status::Ok();
}

ArrivalProcess::ArrivalProcess(ArrivalProcessOptions options)
    : options_(std::move(options)),
      shape_(ShapeOptions(options_)),
      rng_(options_.seed),
      next_id_(options_.first_job_id) {
  Status s = ValidateArrivalOptions(options_);
  BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
  base_rate_ = options_.jobs_per_hour / 3600.0;
  if (options_.pattern == ArrivalPattern::kBursty) {
    // Start in the off state, with the first toggle drawn like any other.
    burst_on_ = false;
    const double f = options_.burst_fraction;
    burst_until_ = rng_.Exponential(options_.mean_burst_seconds * (1.0 - f) / f);
  }
  DrawNextArrival();
}

double ArrivalProcess::RateAt(SimTime t) {
  switch (options_.pattern) {
    case ArrivalPattern::kPoisson:
      return base_rate_;
    case ArrivalPattern::kDiurnal:
      return base_rate_ *
             (1.0 + options_.diurnal_amplitude *
                        std::sin(2.0 * 3.14159265358979323846 * t / options_.diurnal_period));
    case ArrivalPattern::kBursty: {
      const double f = options_.burst_fraction;
      while (t >= burst_until_) {
        burst_on_ = !burst_on_;
        const double mean = burst_on_ ? options_.mean_burst_seconds
                                      : options_.mean_burst_seconds * (1.0 - f) / f;
        burst_until_ += rng_.Exponential(mean);
      }
      return base_rate_ * (burst_on_ ? options_.burst_factor : OffFactor(options_));
    }
  }
  return base_rate_;
}

double ArrivalProcess::PeakRate() const {
  switch (options_.pattern) {
    case ArrivalPattern::kPoisson:
      return base_rate_;
    case ArrivalPattern::kDiurnal:
      return base_rate_ * (1.0 + options_.diurnal_amplitude);
    case ArrivalPattern::kBursty:
      return base_rate_ * std::max(options_.burst_factor, OffFactor(options_));
  }
  return base_rate_;
}

void ArrivalProcess::DrawNextArrival() {
  // Thinning (Lewis–Shedler): candidates at the peak rate, accepted with
  // probability rate(t)/peak. Exact for every pattern here and keeps the
  // draw sequence a pure function of the seed.
  const double peak = PeakRate();
  SimTime t = next_time_;
  for (;;) {
    t += rng_.Exponential(1.0 / peak);
    const double rate = RateAt(t);
    if (rate >= peak || rng_.NextDouble() < rate / peak) {
      break;
    }
  }
  next_time_ = t;
}

MulticastJob ArrivalProcess::Take() {
  const SimTime at = next_time_;

  const Bytes bytes = std::max(options_.block_size,
                               shape_.SampleTransferSize() * options_.size_scale);
  const int dest_count = std::min(shape_.SampleDestCount(), options_.num_dcs - 1);
  const DcId source = static_cast<DcId>(rng_.UniformInt(0, options_.num_dcs - 1));
  std::vector<DcId> dests;
  dests.reserve(static_cast<size_t>(dest_count));
  for (int64_t pick : rng_.SampleWithoutReplacement(options_.num_dcs - 1, dest_count)) {
    // Map [0, num_dcs-2] onto all DCs except the source.
    DcId d = static_cast<DcId>(pick);
    if (d >= source) {
      d = static_cast<DcId>(d + 1);
    }
    dests.push_back(d);
  }

  auto job = MakeJob(next_id_, source, std::move(dests), bytes, options_.block_size, at,
                     "steady-state");
  BDS_CHECK_MSG(job.ok(), job.status().ToString().c_str());
  ++next_id_;
  ++generated_;
  DrawNextArrival();
  return std::move(job).value();
}

}  // namespace bds
