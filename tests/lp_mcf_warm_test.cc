// Relaxed-parity property suite for the FPTAS warm start (DESIGN.md §9.7).
//
// A warm solve carries the previous solve's finalized flows into the
// multiplicative-weights state. Its contract is deliberately weaker than the
// cold solver's bitwise parity with the reference loop: the result must be
// FEASIBLE and DETERMINISTIC, and its objective must stay within (1 + eps)
// of the cold solve's — but it is NOT bitwise-equal to the cold solve. An
// empty seed must degenerate to the cold solver bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/lp/mcf.h"

namespace bds {
namespace {

constexpr double kEps = 0.1;

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectBitwiseEqual(const McfResult& a, const McfResult& b, const char* what,
                        uint64_t seed) {
  ASSERT_EQ(a.ok, b.ok) << what << " seed " << seed;
  ASSERT_EQ(a.flow.size(), b.flow.size()) << what << " seed " << seed;
  for (size_t c = 0; c < b.flow.size(); ++c) {
    ASSERT_EQ(a.flow[c].size(), b.flow[c].size());
    for (size_t p = 0; p < b.flow[c].size(); ++p) {
      ASSERT_EQ(Bits(a.flow[c][p]), Bits(b.flow[c][p]))
          << what << " seed " << seed << " commodity " << c << " path " << p;
    }
  }
  ASSERT_EQ(Bits(a.total_flow), Bits(b.total_flow)) << what << " seed " << seed;
}

// Controller-shaped commodity: private up/down links, a few WAN middles.
McfCommodity StructuredCommodity(Rng& rng, McfInstance& inst, int npaths) {
  McfCommodity com;
  const int up = static_cast<int>(inst.capacities.size());
  inst.capacities.push_back(rng.Uniform(5.0, 50.0));
  const int down = static_cast<int>(inst.capacities.size());
  inst.capacities.push_back(rng.Uniform(5.0, 50.0));
  for (int p = 0; p < npaths; ++p) {
    McfPath path;
    path.links.push_back(up);
    const int mids = static_cast<int>(rng.UniformInt(0, 3));
    for (int m = 0; m < mids; ++m) {
      const int wan = static_cast<int>(inst.capacities.size());
      inst.capacities.push_back(rng.Uniform(20.0, 200.0));
      path.links.push_back(wan);
    }
    path.links.push_back(down);
    com.paths.push_back(path);
  }
  if (rng.Bernoulli(0.8)) {
    com.demand = rng.Uniform(0.5, 10.0);
  }
  return com;
}

McfInstance RandomInstance(uint64_t seed) {
  Rng rng(seed);
  McfInstance inst;
  const int ncom = static_cast<int>(rng.UniformInt(2, 12));
  for (int c = 0; c < ncom; ++c) {
    inst.commodities.push_back(
        StructuredCommodity(rng, inst, static_cast<int>(rng.UniformInt(1, 4))));
  }
  return inst;
}

// One giant link-sharing component: every path crosses a shared backbone.
McfInstance ContendedInstance(uint64_t seed, int ncom) {
  Rng rng(seed);
  McfInstance inst;
  const int backbone = static_cast<int>(inst.capacities.size());
  inst.capacities.push_back(rng.Uniform(50.0, 100.0));
  for (int c = 0; c < ncom; ++c) {
    McfCommodity com;
    const int npaths = static_cast<int>(rng.UniformInt(1, 3));
    for (int p = 0; p < npaths; ++p) {
      McfPath path;
      const int up = static_cast<int>(inst.capacities.size());
      inst.capacities.push_back(rng.Uniform(5.0, 50.0));
      path.links.push_back(up);
      path.links.push_back(backbone);
      com.paths.push_back(path);
    }
    com.demand = rng.Uniform(0.5, 10.0);
    inst.commodities.push_back(com);
  }
  return inst;
}

McfWarmSeed SeedFrom(const McfResult& result) {
  McfWarmSeed seed;
  seed.flows = result.flow;
  return seed;
}

// The headline property, 30 seeds: seeding a solve from its own cold result
// stays feasible and keeps the objective inside the (1 + eps) band.
TEST(McfWarmTest, WarmRelaxedParityAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    McfInstance inst = RandomInstance(seed);
    McfResult cold = SolveMcfFptas(inst, kEps);
    ASSERT_TRUE(cold.ok) << "seed " << seed;
    McfWarmSeed warm_seed = SeedFrom(cold);

    McfWarmInfo info;
    McfResult warm = SolveMcfFptas(inst, kEps, &warm_seed, &info);
    ASSERT_TRUE(warm.ok) << "seed " << seed;
    EXPECT_LE(MaxCapacityViolation(inst, warm), 1e-6) << "seed " << seed;
    if (cold.total_flow > 0.0) {
      EXPECT_TRUE(info.used) << "seed " << seed;
      EXPECT_GT(info.seeded_commodities, 0) << "seed " << seed;
      // Relaxed parity's objective band: within (1 + eps) below the cold
      // solve; above is bounded by feasibility (cold is (1-eps)-optimal).
      EXPECT_GE((1.0 + kEps) * warm.total_flow, cold.total_flow - 1e-9)
          << "seed " << seed;
      EXPECT_LE(warm.total_flow, cold.total_flow / (1.0 - kEps) + 1e-9)
          << "seed " << seed;
    }
  }
}

// warm == nullptr and an empty seed struct must both take the cold path,
// bit for bit, and report the seed as unused.
TEST(McfWarmTest, EmptySeedDegeneratesToColdBitwise) {
  for (uint64_t seed = 40; seed < 45; ++seed) {
    McfInstance inst = RandomInstance(seed);
    McfResult cold = SolveMcfFptas(inst, kEps);
    McfWarmInfo info;
    McfResult null_seed = SolveMcfFptas(inst, kEps, nullptr, &info);
    ExpectBitwiseEqual(null_seed, cold, "null-seed", seed);
    EXPECT_FALSE(info.used);
    McfWarmSeed empty;
    McfResult empty_seed = SolveMcfFptas(inst, kEps, &empty, &info);
    ExpectBitwiseEqual(empty_seed, cold, "empty-seed", seed);
    EXPECT_FALSE(info.used);
  }
}

// A seed from a DIFFERENT (perturbed) instance — the cross-cycle churn case:
// demands moved, so the seeder must clamp carried flows to the new demands
// and the result must still be feasible and deterministic.
TEST(McfWarmTest, StaleSeedFromChurnedInstanceStaysFeasible) {
  for (uint64_t seed = 50; seed < 60; ++seed) {
    McfInstance inst = RandomInstance(seed);
    McfResult cold = SolveMcfFptas(inst, kEps);
    McfWarmSeed stale = SeedFrom(cold);
    // Churn: shrink every capped demand so several carried flows overshoot.
    Rng rng(seed ^ 0xABCDEF);
    for (McfCommodity& com : inst.commodities) {
      if (com.demand > 0.0) {
        com.demand *= rng.Uniform(0.2, 0.9);
      }
    }
    McfResult warm = SolveMcfFptas(inst, kEps, &stale);
    ASSERT_TRUE(warm.ok) << "seed " << seed;
    EXPECT_LE(MaxCapacityViolation(inst, warm), 1e-6) << "seed " << seed;
    for (int c = 0; c < inst.num_commodities(); ++c) {
      if (inst.commodities[c].demand >= 0.0) {
        EXPECT_LE(warm.CommodityFlow(c), inst.commodities[c].demand + 1e-9)
            << "seed " << seed << " commodity " << c;
      }
    }
    McfResult again = SolveMcfFptas(inst, kEps, &stale);
    ExpectBitwiseEqual(again, warm, "stale-seed-determinism", seed);
  }
}

// Warm start on a fully contended instance (every path crosses one shared
// backbone): feasible, deterministic, and in the cold solve's quality
// ballpark.
TEST(McfWarmTest, WarmContendedFeasibleAndDeterministic) {
  for (uint64_t seed = 70; seed < 76; ++seed) {
    McfInstance inst = ContendedInstance(seed, 16);
    McfResult cold = SolveMcfFptas(inst, kEps);
    ASSERT_TRUE(cold.ok) << "seed " << seed;
    McfWarmSeed warm_seed = SeedFrom(cold);
    McfWarmInfo info;
    McfResult warm = SolveMcfFptas(inst, kEps, &warm_seed, &info);
    ASSERT_TRUE(warm.ok) << "seed " << seed;
    EXPECT_TRUE(info.used) << "seed " << seed;
    EXPECT_LE(MaxCapacityViolation(inst, warm), 1e-6) << "seed " << seed;
    EXPECT_GE(warm.total_flow, 0.5 * cold.total_flow) << "seed " << seed;
    McfResult again = SolveMcfFptas(inst, kEps, &warm_seed);
    ExpectBitwiseEqual(again, warm, "warm-contended-determinism", seed);
  }
}

}  // namespace
}  // namespace bds
