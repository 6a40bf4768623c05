// Online statistics, empirical CDFs and histograms used by the evaluation
// harness to report exactly the quantities the paper's figures plot.

#ifndef BDS_SRC_COMMON_STATS_H_
#define BDS_SRC_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bds {

// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;  // Population variance.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Collects samples and answers quantile / CDF queries. Samples are stored;
// intended for up to a few million points (the scale of our experiments).
class EmpiricalDistribution {
 public:
  void Add(double x);
  void AddAll(const std::vector<double>& xs);
  // Pools another distribution's samples into this one (sample union, same
  // result as adding every sample individually): merging an empty
  // distribution is a no-op, self-merge doubles the sample.
  void Merge(const EmpiricalDistribution& other);

  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  bool empty() const { return samples_.empty(); }

  // Quantile q in [0, 1] via linear interpolation on the sorted sample.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  double Stddev() const;
  double Max() const;

  // Empirical CDF value: fraction of samples <= x.
  double CdfAt(double x) const;

  // (x, F(x)) pairs at `points` evenly spaced sample quantiles, ready to print
  // as a figure series.
  struct CdfPoint {
    double x;
    double cdf;
  };
  std::vector<CdfPoint> CdfSeries(int points = 20) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);

  void Add(double x);
  // Bulk insert into a bin by index (n may be negative when building a diff;
  // counts never go below zero by construction of the callers). Used by the
  // telemetry registry to rebuild histograms from per-thread shard counts.
  void AddCount(int bin, int64_t n);
  // Adds another histogram's counts bin-by-bin. Both histograms must have
  // identical [lo, hi) range and bin count. Merging an empty histogram is a
  // no-op, self-merge doubles every bin.
  void Merge(const Histogram& other);

  int64_t BinCount(int bin) const;
  double BinLow(int bin) const;
  double BinHigh(int bin) const;

  // Approximate q-quantile (q in [0, 1]) assuming mass is uniform within a
  // bin: finds the bin holding the q-th count and interpolates inside it.
  // Values clamped into the edge bins resolve to the bin boundary. Edge
  // cases: an empty histogram returns lo(); q outside [0, 1] — including
  // NaN — is clamped (NaN resolves to q=0); when floating-point rounding
  // pushes the target past every occupied bin, the high edge of the last
  // occupied bin is returned rather than hi().
  double Quantile(double q) const;
  int bins() const { return static_cast<int>(counts_.size()); }
  int64_t total() const { return total_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

// A named time series of (t, value) points, e.g. link utilization over time.
class TimeSeries {
 public:
  explicit TimeSeries(std::string name = "") : name_(std::move(name)) {}

  void Add(double t, double value);

  struct Point {
    double t;
    double value;
  };
  const std::vector<Point>& points() const { return points_; }
  const std::string& name() const { return name_; }
  bool empty() const { return points_.empty(); }

  double MaxValue() const;
  double MeanValue() const;

  // Piecewise-constant resampling onto a fixed step (for table output).
  std::vector<Point> Resample(double t0, double t1, double step) const;

 private:
  std::string name_;
  std::vector<Point> points_;
};

}  // namespace bds

#endif  // BDS_SRC_COMMON_STATS_H_
