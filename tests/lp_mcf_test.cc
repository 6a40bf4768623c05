#include "src/lp/mcf.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace bds {
namespace {

McfInstance SingleCommoditySingleLink() {
  McfInstance inst;
  inst.capacities = {10.0};
  McfCommodity c;
  c.paths.push_back({{0}});
  inst.commodities.push_back(c);
  return inst;
}

TEST(McfSimplexTest, SinglePathSaturatesLink) {
  auto inst = SingleCommoditySingleLink();
  McfResult r = SolveMcfSimplex(inst);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.total_flow, 10.0, 1e-9);
  EXPECT_NEAR(r.flow[0][0], 10.0, 1e-9);
}

TEST(McfSimplexTest, DemandCapsFlow) {
  auto inst = SingleCommoditySingleLink();
  inst.commodities[0].demand = 4.0;
  McfResult r = SolveMcfSimplex(inst);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.total_flow, 4.0, 1e-9);
}

TEST(McfSimplexTest, TwoDisjointPathsAdd) {
  McfInstance inst;
  inst.capacities = {3.0, 5.0};
  McfCommodity c;
  c.paths.push_back({{0}});
  c.paths.push_back({{1}});
  inst.commodities.push_back(c);
  McfResult r = SolveMcfSimplex(inst);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.total_flow, 8.0, 1e-9);
}

TEST(McfSimplexTest, SharedBottleneck) {
  // Two commodities share link 0 (cap 6); each also crosses a private link
  // (caps 10). Total flow = 6.
  McfInstance inst;
  inst.capacities = {6.0, 10.0, 10.0};
  McfCommodity c1;
  c1.paths.push_back({{0, 1}});
  McfCommodity c2;
  c2.paths.push_back({{0, 2}});
  inst.commodities.push_back(c1);
  inst.commodities.push_back(c2);
  McfResult r = SolveMcfSimplex(inst);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.total_flow, 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(MaxCapacityViolation(inst, r), 0.0);
}

TEST(McfSimplexTest, Figure3LikeInstance) {
  // Direct path (cap 2) and relay path (cap 3 bottleneck): max one-shot
  // throughput is 5 units/s — the basis for the 36 GB in ~7.2+store-forward
  // analysis in §2.2.
  McfInstance inst;
  inst.capacities = {2.0, 6.0, 3.0};
  McfCommodity c;
  c.paths.push_back({{0}});     // A->C direct
  c.paths.push_back({{1, 2}});  // A->b->C
  inst.commodities.push_back(c);
  McfResult r = SolveMcfSimplex(inst);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.total_flow, 5.0, 1e-9);
}

TEST(McfFptasTest, MatchesExactOnSingleLink) {
  auto inst = SingleCommoditySingleLink();
  McfResult r = SolveMcfFptas(inst, 0.05);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.total_flow, 10.0 * 0.93);
  EXPECT_LE(MaxCapacityViolation(inst, r), 1e-9);
}

TEST(McfFptasTest, RespectsDemand) {
  auto inst = SingleCommoditySingleLink();
  inst.commodities[0].demand = 4.0;
  McfResult r = SolveMcfFptas(inst, 0.05);
  ASSERT_TRUE(r.ok);
  EXPECT_LE(r.flow[0][0], 4.0 + 1e-9);
  EXPECT_GE(r.total_flow, 4.0 * 0.9);
}

TEST(McfFptasTest, ZeroCapacityLinkCarriesNothing) {
  McfInstance inst;
  inst.capacities = {0.0, 5.0};
  McfCommodity c;
  c.paths.push_back({{0}});
  c.paths.push_back({{1}});
  inst.commodities.push_back(c);
  McfResult r = SolveMcfFptas(inst, 0.1);
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.flow[0][0], 0.0);
  EXPECT_GE(r.flow[0][1], 5.0 * 0.85);
}

TEST(McfFptasTest, ZeroDemandCommodityGetsNothing) {
  auto inst = SingleCommoditySingleLink();
  inst.commodities[0].demand = 0.0;
  McfResult r = SolveMcfFptas(inst, 0.1);
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.total_flow, 0.0);
}

TEST(McfFptasTest, EmptyInstance) {
  McfInstance inst;
  McfResult r = SolveMcfFptas(inst, 0.1);
  EXPECT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.total_flow, 0.0);
}

TEST(McfFptasTest, CommodityWithNoPaths) {
  McfInstance inst;
  inst.capacities = {5.0};
  inst.commodities.push_back(McfCommodity{});  // No paths at all.
  McfCommodity c;
  c.paths.push_back({{0}});
  inst.commodities.push_back(c);
  McfResult r = SolveMcfFptas(inst, 0.1);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.flow[0].empty());
  EXPECT_GT(r.total_flow, 0.0);
}

// Property sweep: random instances — the FPTAS must be feasible and within
// (1 - 3*eps) of the simplex optimum.
class McfRandomComparisonTest : public ::testing::TestWithParam<int> {};

TEST_P(McfRandomComparisonTest, FptasNearOptimalAndFeasible) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  McfInstance inst;
  int num_links = static_cast<int>(rng.UniformInt(2, 10));
  for (int l = 0; l < num_links; ++l) {
    inst.capacities.push_back(rng.Uniform(1.0, 20.0));
  }
  int num_commodities = static_cast<int>(rng.UniformInt(1, 5));
  for (int c = 0; c < num_commodities; ++c) {
    McfCommodity com;
    if (rng.Bernoulli(0.5)) {
      com.demand = rng.Uniform(0.5, 15.0);
    }
    int num_paths = static_cast<int>(rng.UniformInt(1, 4));
    for (int p = 0; p < num_paths; ++p) {
      McfPath path;
      int len = static_cast<int>(rng.UniformInt(1, std::min(3, num_links)));
      auto picks = rng.SampleWithoutReplacement(num_links, len);
      for (int64_t l : picks) {
        path.links.push_back(static_cast<int>(l));
      }
      com.paths.push_back(std::move(path));
    }
    inst.commodities.push_back(std::move(com));
  }

  const double eps = 0.05;
  McfResult exact = SolveMcfSimplex(inst);
  ASSERT_TRUE(exact.ok);
  McfResult approx = SolveMcfFptas(inst, eps);
  ASSERT_TRUE(approx.ok);

  EXPECT_LE(MaxCapacityViolation(inst, approx), 1e-6);
  EXPECT_LE(approx.total_flow, exact.total_flow * (1.0 + 1e-6));
  EXPECT_GE(approx.total_flow, exact.total_flow * (1.0 - 3.0 * eps) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, McfRandomComparisonTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace bds
