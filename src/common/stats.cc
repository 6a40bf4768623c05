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

void EmpiricalDistribution::Merge(const EmpiricalDistribution& other) {
  if (other.samples_.empty()) {
    return;
  }
  if (&other == this) {
    // Self-merge: duplicate every sample. Copy first — inserting a vector's
    // own range into itself invalidates the source iterators on growth.
    std::vector<double> copy = samples_;
    samples_.insert(samples_.end(), copy.begin(), copy.end());
    sorted_ = false;
    return;
  }
  if (samples_.empty()) {
    samples_ = other.samples_;
    sorted_ = other.sorted_;
    return;
  }
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
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

double EmpiricalDistribution::Stddev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  double mean = Mean();
  double m2 = 0.0;
  for (double s : samples_) {
    m2 += (s - mean) * (s - mean);
  }
  return std::sqrt(m2 / static_cast<double>(samples_.size()));
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

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
  BDS_CHECK(hi > lo && bins > 0);
  counts_.assign(static_cast<size_t>(bins), 0);
}

void Histogram::Add(double x) {
  int bin = static_cast<int>((x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size()));
  bin = std::clamp(bin, 0, static_cast<int>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
}

void Histogram::AddCount(int bin, int64_t n) {
  BDS_CHECK(bin >= 0 && bin < bins());
  counts_[static_cast<size_t>(bin)] += n;
  total_ += n;
}

void Histogram::Merge(const Histogram& other) {
  BDS_CHECK(other.lo_ == lo_ && other.hi_ == hi_ && other.bins() == bins());
  if (other.total_ == 0) {
    return;
  }
  // Self-merge doubles every bin; reading counts_ while writing it is safe
  // here because the sizes match and we only do element-wise +=.
  for (size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
}

int64_t Histogram::BinCount(int bin) const {
  BDS_CHECK(bin >= 0 && bin < bins());
  return counts_[static_cast<size_t>(bin)];
}

double Histogram::BinLow(int bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) / static_cast<double>(bins());
}

double Histogram::BinHigh(int bin) const { return BinLow(bin + 1); }

double Histogram::Quantile(double q) const {
  if (total_ == 0) {
    return lo_;  // Range floor: always a representable value of this histogram.
  }
  // std::clamp is unspecified for NaN; pin it to the low edge explicitly.
  if (!(q >= 0.0)) {
    q = 0.0;
  } else if (q > 1.0) {
    q = 1.0;
  }
  const double target = q * static_cast<double>(total_);
  int64_t cumulative = 0;
  int last_occupied = -1;
  for (int b = 0; b < bins(); ++b) {
    const int64_t c = counts_[static_cast<size_t>(b)];
    if (static_cast<double>(cumulative + c) >= target && c > 0) {
      const double within = (target - static_cast<double>(cumulative)) / static_cast<double>(c);
      return BinLow(b) + (BinHigh(b) - BinLow(b)) * std::clamp(within, 0.0, 1.0);
    }
    cumulative += c;
    if (c > 0) {
      last_occupied = b;
    }
  }
  // Rounding pushed the target past every occupied bin; the tightest honest
  // answer is the high edge of the last occupied bin, not hi_ (which can be
  // far above every recorded sample when the top bins are empty).
  return last_occupied >= 0 ? BinHigh(last_occupied) : hi_;
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
