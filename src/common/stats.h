// Online statistics, empirical CDFs and time series used by the evaluation
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

  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  bool empty() const { return samples_.empty(); }

  // Quantile q in [0, 1] via linear interpolation on the sorted sample.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
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
