#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace bds {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // Classic population-variance example.
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(EmpiricalDistributionTest, QuantilesOfLinearRamp) {
  EmpiricalDistribution d;
  for (int i = 0; i <= 100; ++i) {
    d.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(d.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(d.Median(), 50.0);
  EXPECT_DOUBLE_EQ(d.Max(), 100.0);
}

TEST(EmpiricalDistributionTest, QuantileInterpolates) {
  EmpiricalDistribution d;
  d.Add(0.0);
  d.Add(10.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(d.Quantile(0.75), 7.5);
}

TEST(EmpiricalDistributionTest, CdfAt) {
  EmpiricalDistribution d;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    d.Add(v);
  }
  EXPECT_DOUBLE_EQ(d.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.CdfAt(2.5), 0.5);
  EXPECT_DOUBLE_EQ(d.CdfAt(4.0), 1.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(100.0), 1.0);
}

TEST(EmpiricalDistributionTest, MeanAndStddev) {
  EmpiricalDistribution d;
  EXPECT_DOUBLE_EQ(d.Mean(), 0.0);  // Empty: no samples, no mean.
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    d.Add(v);
  }
  EXPECT_DOUBLE_EQ(d.Mean(), 5.0);
}

TEST(EmpiricalDistributionTest, CdfSeriesMonotone) {
  EmpiricalDistribution d;
  for (int i = 0; i < 500; ++i) {
    d.Add(std::fmod(i * 37.0, 101.0));
  }
  auto series = d.CdfSeries(25);
  ASSERT_EQ(series.size(), 25u);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].x, series[i - 1].x);
    EXPECT_GT(series[i].cdf, series[i - 1].cdf);
  }
  EXPECT_DOUBLE_EQ(series.back().cdf, 1.0);
}

TEST(EmpiricalDistributionTest, AddAllMatchesAdd) {
  EmpiricalDistribution a;
  EmpiricalDistribution b;
  std::vector<double> vals{3.0, 1.0, 2.0};
  a.AddAll(vals);
  for (double v : vals) {
    b.Add(v);
  }
  EXPECT_DOUBLE_EQ(a.Median(), b.Median());
  EXPECT_EQ(a.count(), 3);
}

TEST(TimeSeriesTest, BasicAccumulation) {
  TimeSeries ts("util");
  ts.Add(0.0, 0.5);
  ts.Add(1.0, 0.7);
  ts.Add(2.0, 0.2);
  EXPECT_EQ(ts.points().size(), 3u);
  EXPECT_DOUBLE_EQ(ts.MaxValue(), 0.7);
  EXPECT_NEAR(ts.MeanValue(), (0.5 + 0.7 + 0.2) / 3.0, 1e-12);
  EXPECT_EQ(ts.name(), "util");
}

TEST(TimeSeriesTest, ResamplePiecewiseConstant) {
  TimeSeries ts;
  ts.Add(0.0, 1.0);
  ts.Add(2.0, 3.0);
  auto pts = ts.Resample(0.0, 4.0, 1.0);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts[0].value, 1.0);  // t=0
  EXPECT_DOUBLE_EQ(pts[1].value, 1.0);  // t=1
  EXPECT_DOUBLE_EQ(pts[2].value, 3.0);  // t=2
  EXPECT_DOUBLE_EQ(pts[4].value, 3.0);  // t=4
}

TEST(TimeSeriesTest, EmptyBehaviour) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.MaxValue(), 0.0);
  EXPECT_DOUBLE_EQ(ts.MeanValue(), 0.0);
}

}  // namespace
}  // namespace bds
