#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace bds {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBoundsAndHitsAll) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(11);
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(13);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, BernoulliMeanCloseToP) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, NormalMeanAndStddev) {
  Rng rng(19);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Exponential(4.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(31);
  std::vector<double> v;
  const int n = 30001;
  v.reserve(n);
  for (int i = 0; i < n; ++i) {
    v.push_back(rng.LogNormal(1.0, 0.5));
  }
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  // Median of lognormal = exp(mu).
  EXPECT_NEAR(v[n / 2], std::exp(1.0), 0.1);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(53);
  for (int trial = 0; trial < 100; ++trial) {
    auto s = rng.SampleWithoutReplacement(50, 10);
    ASSERT_EQ(s.size(), 10u);
    std::set<int64_t> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), 10u);
    for (int64_t v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 50);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(59);
  auto s = rng.SampleWithoutReplacement(8, 8);
  std::set<int64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 8u);
}

TEST(RngTest, SampleWithoutReplacementEmpty) {
  Rng rng(61);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(67);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

}  // namespace
}  // namespace bds
