// Bit-exactness property tests for the incremental FPTAS.
//
// SolveMcfFptas is a performance rewrite of SolveMcfFptasReference (the
// test oracle in tests/oracles.h): same Fleischer phase structure, same push
// sequence, different bookkeeping (CSR layout, shared-structure scan
// unrolling, post-push lower-bound skips). Its contract is that every
// per-path flow is bit-identical to the reference — not merely close —
// because the controller's decision fingerprints hash raw rate doubles.
//
// The generator below deliberately produces every scan kind the solver
// specializes:
//  * controller-shaped commodities (1 or 3 paths sharing first/penultimate/
//    last link with at most two middle links) — the unrolled fast kinds;
//  * shared-endpoint commodities with longer middles or other path counts —
//    the hoisted structured kind;
//  * free-form commodities (short paths, differing endpoints, mixed
//    lengths) — the generic kind;
// plus capped and uncapped demands, zero-capacity (dead) links, and
// single-link paths.

#include "src/lp/mcf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/common/rng.h"
#include "tests/oracles.h"

namespace bds {
namespace {

// A controller-shaped commodity: `npaths` paths sharing uplink/downlink/
// demand-edge-like structure over a pool of `wan` middle links.
McfCommodity StructuredCommodity(Rng& rng, McfInstance& inst, int npaths, int max_mid) {
  McfCommodity com;
  const int up = static_cast<int>(inst.capacities.size());
  inst.capacities.push_back(rng.Uniform(5.0, 50.0));
  const int down = static_cast<int>(inst.capacities.size());
  inst.capacities.push_back(rng.Uniform(5.0, 50.0));
  for (int p = 0; p < npaths; ++p) {
    McfPath path;
    path.links.push_back(up);
    const int mids = static_cast<int>(rng.UniformInt(0, max_mid));
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

// A free-form commodity: arbitrary lengths over a shared link pool,
// occasionally through a dead (zero-capacity) link.
McfCommodity GenericCommodity(Rng& rng, const std::vector<int>& pool, int dead_link) {
  McfCommodity com;
  const int npaths = static_cast<int>(rng.UniformInt(1, 4));
  for (int p = 0; p < npaths; ++p) {
    McfPath path;
    // Distinct links per path (a path never crosses one link twice); drawn
    // by shuffling a copy of the pool.
    std::vector<int> deck = pool;
    rng.Shuffle(deck);
    const int len = static_cast<int>(
        rng.UniformInt(1, std::min<int64_t>(6, static_cast<int64_t>(deck.size()))));
    path.links.assign(deck.begin(), deck.begin() + len);
    if (dead_link >= 0 && rng.Bernoulli(0.1)) {
      path.links.push_back(dead_link);
    }
    com.paths.push_back(path);
  }
  if (rng.Bernoulli(0.5)) {
    com.demand = rng.Uniform(0.5, 20.0);
  }
  return com;
}

McfInstance RandomInstance(uint64_t seed) {
  Rng rng(seed);
  McfInstance inst;
  // Shared link pool for the generic commodities.
  std::vector<int> pool;
  const int pool_size = static_cast<int>(rng.UniformInt(3, 12));
  for (int l = 0; l < pool_size; ++l) {
    pool.push_back(static_cast<int>(inst.capacities.size()));
    inst.capacities.push_back(rng.Uniform(1.0, 100.0));
  }
  int dead_link = -1;
  if (rng.Bernoulli(0.3)) {
    dead_link = static_cast<int>(inst.capacities.size());
    inst.capacities.push_back(0.0);
  }
  const int ncom = static_cast<int>(rng.UniformInt(2, 14));
  for (int c = 0; c < ncom; ++c) {
    switch (rng.UniformInt(0, 3)) {
      case 0:  // Controller shape, unrolled 3-path kind.
        inst.commodities.push_back(StructuredCommodity(rng, inst, 3, 2));
        break;
      case 1:  // Controller shape, unrolled 1-path kind.
        inst.commodities.push_back(StructuredCommodity(rng, inst, 1, 2));
        break;
      case 2:  // Shared endpoints but long middles / odd path count.
        inst.commodities.push_back(StructuredCommodity(
            rng, inst, static_cast<int>(rng.UniformInt(2, 5)), 4));
        break;
      default:
        inst.commodities.push_back(GenericCommodity(rng, pool, dead_link));
        break;
    }
  }
  return inst;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(McfFptasParityTest, RandomInstancesMatchReferenceBitForBit) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    McfInstance inst = RandomInstance(seed);
    McfResult fast = SolveMcfFptas(inst, 0.1);
    McfResult ref = SolveMcfFptasReference(inst, 0.1);
    ASSERT_EQ(fast.ok, ref.ok) << "seed " << seed;
    ASSERT_EQ(fast.flow.size(), ref.flow.size()) << "seed " << seed;
    for (size_t c = 0; c < ref.flow.size(); ++c) {
      ASSERT_EQ(fast.flow[c].size(), ref.flow[c].size()) << "seed " << seed;
      for (size_t p = 0; p < ref.flow[c].size(); ++p) {
        ASSERT_EQ(Bits(fast.flow[c][p]), Bits(ref.flow[c][p]))
            << "seed " << seed << " commodity " << c << " path " << p << ": "
            << fast.flow[c][p] << " vs " << ref.flow[c][p];
      }
    }
    ASSERT_EQ(Bits(fast.total_flow), Bits(ref.total_flow)) << "seed " << seed;
  }
}

TEST(McfFptasParityTest, VariedEpsilonsMatchReferenceBitForBit) {
  for (double epsilon : {0.05, 0.1, 0.25, 0.5}) {
    for (uint64_t seed = 100; seed < 105; ++seed) {
      McfInstance inst = RandomInstance(seed);
      McfResult fast = SolveMcfFptas(inst, epsilon);
      McfResult ref = SolveMcfFptasReference(inst, epsilon);
      ASSERT_EQ(fast.ok, ref.ok);
      for (size_t c = 0; c < ref.flow.size(); ++c) {
        for (size_t p = 0; p < ref.flow[c].size(); ++p) {
          ASSERT_EQ(Bits(fast.flow[c][p]), Bits(ref.flow[c][p]))
              << "eps " << epsilon << " seed " << seed;
        }
      }
    }
  }
}

TEST(McfFptasParityTest, FlowsStayFeasible) {
  for (uint64_t seed = 200; seed < 220; ++seed) {
    McfInstance inst = RandomInstance(seed);
    McfResult fast = SolveMcfFptas(inst, 0.1);
    ASSERT_TRUE(fast.ok);
    EXPECT_LE(MaxCapacityViolation(inst, fast), 1e-6) << "seed " << seed;
  }
}

TEST(McfFptasParityTest, EmptyAndDegenerateInstances) {
  McfInstance empty;
  EXPECT_TRUE(SolveMcfFptas(empty, 0.1).ok);

  // A commodity with no paths next to a normal one.
  McfInstance inst;
  inst.capacities = {4.0};
  inst.commodities.emplace_back();
  McfCommodity c;
  c.paths.push_back({{0}});
  inst.commodities.push_back(c);
  McfResult fast = SolveMcfFptas(inst, 0.1);
  McfResult ref = SolveMcfFptasReference(inst, 0.1);
  ASSERT_TRUE(fast.ok);
  EXPECT_EQ(Bits(fast.flow[1][0]), Bits(ref.flow[1][0]));
  EXPECT_TRUE(fast.flow[0].empty());
}

}  // namespace
}  // namespace bds
