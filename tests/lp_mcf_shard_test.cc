// Bit-exactness and feasibility tests for the sharded FPTAS.
//
// SolveMcfFptasSharded partitions commodities into link-disjoint groups,
// runs the tuned push loop per group against the GLOBAL instance's constants
// (delta, alpha ladder, push budget), and merges with one global finalize.
// Its contract: bit-identical results to SolveMcfFptas for ANY shard count
// and thread count, because link-disjoint commodity
// subsets never observe each other's length updates. The generator mirrors
// the FPTAS parity suite's — controller-shaped commodities (each its own
// component) mixed with pool-sharing generic commodities (one entangled
// component) — so every packing shape is exercised.

#include "src/lp/mcf_shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/lp/mcf.h"

namespace bds {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

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

McfCommodity GenericCommodity(Rng& rng, const std::vector<int>& pool, int dead_link) {
  McfCommodity com;
  const int npaths = static_cast<int>(rng.UniformInt(1, 4));
  for (int p = 0; p < npaths; ++p) {
    McfPath path;
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

// Mixed instance: many link-disjoint components plus one entangled pool.
McfInstance RandomInstance(uint64_t seed) {
  Rng rng(seed);
  McfInstance inst;
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
      case 0:
        inst.commodities.push_back(StructuredCommodity(rng, inst, 3, 2));
        break;
      case 1:
        inst.commodities.push_back(StructuredCommodity(rng, inst, 1, 2));
        break;
      case 2:
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

// One giant component: every commodity's paths cross a shared backbone link,
// so link-disjoint decomposition cannot split anything.
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

void ExpectBitwiseEqual(const McfResult& a, const McfResult& b, const char* what,
                        uint64_t seed, int shards) {
  ASSERT_EQ(a.ok, b.ok) << what << " seed " << seed << " shards " << shards;
  ASSERT_EQ(a.flow.size(), b.flow.size());
  for (size_t c = 0; c < b.flow.size(); ++c) {
    ASSERT_EQ(a.flow[c].size(), b.flow[c].size());
    for (size_t p = 0; p < b.flow[c].size(); ++p) {
      ASSERT_EQ(Bits(a.flow[c][p]), Bits(b.flow[c][p]))
          << what << " seed " << seed << " shards " << shards << " commodity " << c
          << " path " << p << ": " << a.flow[c][p] << " vs " << b.flow[c][p];
    }
  }
  ASSERT_EQ(Bits(a.total_flow), Bits(b.total_flow))
      << what << " seed " << seed << " shards " << shards;
}

TEST(McfShardTest, MatchesUnshardedBitForBitAcrossShardAndThreadCounts) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    McfInstance inst = RandomInstance(seed);
    McfResult unsharded = SolveMcfFptas(inst, 0.1);
    for (int shards : {1, 2, 4, 8}) {
      for (int threads : {1, 4}) {
        ParallelRunner pool(threads);
        McfShardOptions opt;
        opt.num_shards = shards;
        McfShardStats stats;
        McfResult sharded = SolveMcfFptasSharded(inst, 0.1, opt, &pool, &stats);
        ExpectBitwiseEqual(sharded, unsharded, "sharded-vs-unsharded", seed, shards);
        EXPECT_LE(stats.num_groups, std::max(1, shards));
        EXPECT_GE(stats.num_components, 1);
      }
    }
  }
}

TEST(McfShardTest, NullPoolIsEquivalentToSerialPool) {
  for (uint64_t seed = 50; seed < 55; ++seed) {
    McfInstance inst = RandomInstance(seed);
    McfShardOptions opt;
    opt.num_shards = 4;
    McfResult no_pool = SolveMcfFptasSharded(inst, 0.1, opt, nullptr);
    ParallelRunner pool(4);
    McfResult with_pool = SolveMcfFptasSharded(inst, 0.1, opt, &pool);
    ExpectBitwiseEqual(no_pool, with_pool, "nullpool-vs-pool", seed, 4);
  }
}

TEST(McfShardTest, DisjointComponentsSpreadAcrossGroups) {
  // Four structured commodities with private links: four components, so
  // asking for four shards must produce four groups and still match the
  // unsharded run.
  Rng rng(7);
  McfInstance inst;
  for (int c = 0; c < 4; ++c) {
    inst.commodities.push_back(StructuredCommodity(rng, inst, 3, 2));
  }
  McfShardOptions opt;
  opt.num_shards = 4;
  McfShardStats stats;
  McfResult sharded = SolveMcfFptasSharded(inst, 0.1, opt, nullptr, &stats);
  EXPECT_EQ(stats.num_components, 4);
  EXPECT_EQ(stats.num_groups, 4);
  McfResult unsharded = SolveMcfFptas(inst, 0.1);
  ExpectBitwiseEqual(sharded, unsharded, "disjoint", 7, 4);
}

TEST(McfShardTest, ContendedInstanceCollapsesToOneGroupWithoutSplit) {
  McfInstance inst = ContendedInstance(11, 12);
  McfShardOptions opt;
  opt.num_shards = 4;
  McfShardStats stats;
  McfResult sharded = SolveMcfFptasSharded(inst, 0.1, opt, nullptr, &stats);
  EXPECT_EQ(stats.num_components, 1);
  EXPECT_EQ(stats.num_groups, 1);
  ExpectBitwiseEqual(sharded, SolveMcfFptas(inst, 0.1), "contended", 11, 4);
}

TEST(McfShardTest, EmptyAndDegenerateInstances) {
  McfInstance empty;
  McfShardOptions opt;
  opt.num_shards = 4;
  EXPECT_TRUE(SolveMcfFptasSharded(empty, 0.1, opt, nullptr).ok);

  // A commodity with no paths next to a normal one.
  McfInstance inst;
  inst.capacities = {4.0};
  inst.commodities.emplace_back();
  McfCommodity c;
  c.paths.push_back({{0}});
  inst.commodities.push_back(c);
  McfResult sharded = SolveMcfFptasSharded(inst, 0.1, opt, nullptr);
  ASSERT_TRUE(sharded.ok);
  ExpectBitwiseEqual(sharded, SolveMcfFptas(inst, 0.1), "degenerate", 0, 4);
}

}  // namespace
}  // namespace bds
