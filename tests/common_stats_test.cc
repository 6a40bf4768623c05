#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    d.Add(v);
  }
  EXPECT_DOUBLE_EQ(d.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.Stddev(), 2.0);
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

TEST(EmpiricalDistributionTest, MergeMatchesCombinedStream) {
  EmpiricalDistribution a;
  EmpiricalDistribution b;
  EmpiricalDistribution all;
  for (int i = 0; i < 60; ++i) {
    double v = std::cos(i) * 7.0;
    (i % 3 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.Median(), all.Median());
  EXPECT_DOUBLE_EQ(a.Quantile(0.9), all.Quantile(0.9));
  EXPECT_DOUBLE_EQ(a.Quantile(0.0), all.Quantile(0.0));
  EXPECT_DOUBLE_EQ(a.Max(), all.Max());
}

TEST(EmpiricalDistributionTest, MergeWithEmpty) {
  // An empty other is a no-op; merging into an empty distribution copies.
  EmpiricalDistribution a;
  a.Add(1.0);
  a.Add(3.0);
  EmpiricalDistribution empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.Median(), 2.0);

  EmpiricalDistribution c;
  c.Merge(a);
  EXPECT_EQ(c.count(), 2);
  EXPECT_DOUBLE_EQ(c.Median(), 2.0);
}

TEST(EmpiricalDistributionTest, MergeWithSelfDoublesSamples) {
  EmpiricalDistribution a;
  a.Add(1.0);
  a.Add(5.0);
  a.Merge(a);
  EXPECT_EQ(a.count(), 4);
  EXPECT_DOUBLE_EQ(a.Median(), 3.0);
  EXPECT_DOUBLE_EQ(a.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.Max(), 5.0);

  EmpiricalDistribution empty;
  empty.Merge(empty);
  EXPECT_EQ(empty.count(), 0);
}

TEST(EmpiricalDistributionTest, MergePreservesLaterAdds) {
  // Sorted-state invalidation: quantiles queried before a merge must not
  // poison quantiles queried after.
  EmpiricalDistribution a;
  a.Add(10.0);
  EXPECT_DOUBLE_EQ(a.Median(), 10.0);  // Forces the sorted path.
  EmpiricalDistribution b;
  b.Add(0.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Median(), 5.0);
  a.Add(20.0);
  EXPECT_DOUBLE_EQ(a.Median(), 10.0);
}

TEST(HistogramTest, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.Add(1.0);    // bin 0
  h.Add(3.0);    // bin 1
  h.Add(-5.0);   // clamps to bin 0
  h.Add(100.0);  // clamps to bin 4
  EXPECT_EQ(h.BinCount(0), 2);
  EXPECT_EQ(h.BinCount(1), 1);
  EXPECT_EQ(h.BinCount(4), 1);
  EXPECT_EQ(h.total(), 4);
  EXPECT_DOUBLE_EQ(h.BinLow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BinHigh(0), 2.0);
  EXPECT_DOUBLE_EQ(h.BinHigh(4), 10.0);
}

TEST(HistogramTest, AddCountBulkMatchesRepeatedAdd) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 5);
  for (int i = 0; i < 7; ++i) {
    a.Add(3.0);
  }
  b.AddCount(1, 7);
  EXPECT_EQ(a.BinCount(1), b.BinCount(1));
  EXPECT_EQ(a.total(), b.total());
}

TEST(HistogramTest, MergeMatchesCombinedStream) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 5);
  Histogram all(0.0, 10.0, 5);
  for (int i = 0; i < 40; ++i) {
    double v = std::fmod(i * 1.7, 12.0) - 1.0;  // Exercises both clamp edges.
    (i % 2 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.total(), all.total());
  for (int bin = 0; bin < all.bins(); ++bin) {
    EXPECT_EQ(a.BinCount(bin), all.BinCount(bin)) << "bin " << bin;
  }
}

TEST(HistogramTest, MergeWithEmptyAndSelf) {
  Histogram a(0.0, 10.0, 5);
  a.Add(1.0);
  a.Add(9.0);
  Histogram empty(0.0, 10.0, 5);
  a.Merge(empty);
  EXPECT_EQ(a.total(), 2);

  Histogram c(0.0, 10.0, 5);
  c.Merge(a);
  EXPECT_EQ(c.total(), 2);
  EXPECT_EQ(c.BinCount(0), 1);
  EXPECT_EQ(c.BinCount(4), 1);

  a.Merge(a);
  EXPECT_EQ(a.total(), 4);
  EXPECT_EQ(a.BinCount(0), 2);
  EXPECT_EQ(a.BinCount(4), 2);
}

TEST(HistogramTest, QuantileEmptyReturnsRangeFloor) {
  Histogram h(5.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 5.0);
}

TEST(HistogramTest, QuantileSingleSampleAndSingleBin) {
  Histogram one(0.0, 10.0, 5);
  one.Add(3.0);  // bin 1 = [2, 4)
  EXPECT_DOUBLE_EQ(one.Quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(one.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(one.Quantile(0.5), 3.0);

  Histogram single(0.0, 8.0, 1);
  single.Add(1.0);
  single.Add(7.0);
  EXPECT_DOUBLE_EQ(single.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(single.Quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(single.Quantile(1.0), 8.0);
}

TEST(HistogramTest, QuantileClampsOutOfRangeAndNanQ) {
  Histogram h(0.0, 10.0, 5);
  h.Add(3.0);
  EXPECT_DOUBLE_EQ(h.Quantile(-0.5), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
  const double nan_q = h.Quantile(std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(nan_q, h.Quantile(0.0));
}

TEST(HistogramTest, QuantileTopCapsAtLastOccupiedBin) {
  // Every sample lives in bin 1 of [0, 100): q=1 must answer with that bin's
  // high edge, not the histogram ceiling 60 bins further up.
  Histogram h(0.0, 100.0, 50);
  for (int i = 0; i < 9; ++i) {
    h.Add(3.0);  // bin 1 = [2, 4)
  }
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 4.0);
  EXPECT_LE(h.Quantile(0.999), 4.0);
}

TEST(HistogramTest, QuantileMonotoneInQ) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) {
    h.Add(std::fmod(i * 0.37, 10.0));
  }
  double prev = h.Quantile(0.0);
  for (double q = 0.05; q <= 1.0 + 1e-9; q += 0.05) {
    double v = h.Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(HistogramDeathTest, MergeRejectsMismatchedShape) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 10);
  EXPECT_DEATH(a.Merge(b), "");
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
