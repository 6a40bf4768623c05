#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/status.h"

namespace bds {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void EmpiricalDistribution::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalDistribution::AddAll(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void EmpiricalDistribution::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalDistribution::Quantile(double q) const {
  BDS_CHECK(!samples_.empty());
  BDS_CHECK(q >= 0.0 && q <= 1.0);
  EnsureSorted();
  if (samples_.size() == 1) {
    return samples_[0];
  }
  double pos = q * static_cast<double>(samples_.size() - 1);
  size_t i = static_cast<size_t>(pos);
  if (i + 1 >= samples_.size()) {
    return samples_.back();
  }
  double frac = pos - static_cast<double>(i);
  return samples_[i] * (1.0 - frac) + samples_[i + 1] * frac;
}

double EmpiricalDistribution::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

double EmpiricalDistribution::Max() const {
  BDS_CHECK(!samples_.empty());
  EnsureSorted();
  return samples_.back();
}

double EmpiricalDistribution::CdfAt(double x) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

std::vector<EmpiricalDistribution::CdfPoint> EmpiricalDistribution::CdfSeries(int points) const {
  std::vector<CdfPoint> out;
  if (samples_.empty() || points <= 0) {
    return out;
  }
  out.reserve(static_cast<size_t>(points));
  for (int i = 1; i <= points; ++i) {
    double q = static_cast<double>(i) / static_cast<double>(points);
    out.push_back({Quantile(q), q});
  }
  return out;
}

void TimeSeries::Add(double t, double value) { points_.push_back({t, value}); }

double TimeSeries::MaxValue() const {
  double m = 0.0;
  for (const Point& p : points_) {
    m = std::max(m, p.value);
  }
  return m;
}

double TimeSeries::MeanValue() const {
  if (points_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const Point& p : points_) {
    sum += p.value;
  }
  return sum / static_cast<double>(points_.size());
}

std::vector<TimeSeries::Point> TimeSeries::Resample(double t0, double t1, double step) const {
  BDS_CHECK(step > 0.0 && t1 >= t0);
  std::vector<Point> out;
  size_t idx = 0;
  double last = points_.empty() ? 0.0 : points_.front().value;
  for (double t = t0; t <= t1 + 1e-12; t += step) {
    while (idx < points_.size() && points_[idx].t <= t) {
      last = points_[idx].value;
      ++idx;
    }
    out.push_back({t, last});
  }
  return out;
}

}  // namespace bds
