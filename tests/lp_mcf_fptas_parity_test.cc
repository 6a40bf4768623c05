// Bit-exactness property tests for the incremental FPTAS.
//
// SolveMcfFptas is a performance rewrite of SolveMcfFptasReference (the
// test oracle in tests/oracles.h): same Fleischer phase structure, same push
// sequence, different bookkeeping (CSR layout, packed commodity records,
// post-push lower-bound skips). Its contract is that every per-path flow is
// bit-identical to the reference — not merely close — because the
// controller's decision fingerprints hash raw rate doubles.
//
// The generator below deliberately produces both scan kinds and every guard
// between them:
//  * controller-shaped commodities (1, 2 or 3 paths sharing first/
//    penultimate/last link with at most two middle links) — packed records;
//  * the same shape over uplinks, downlinks and a WAN pool shared across
//    commodities, the way RouteBlocks builds them: capped ones keep a private
//    demand edge (packed), uncapped ones end on a shared downlink (CSR scan,
//    as the demand edge's length lives in the record);
//  * paths whose middle repeats their first link (CSR scan, as a push writes
//    each slot's scan-time length);
//  * shared-endpoint commodities with longer middles or more paths, and
//    free-form commodities (short paths, differing endpoints, mixed
//    lengths) — the CSR scan;
// plus capped and uncapped demands, zero-capacity (dead) links, and
// single-link paths.

#include "src/lp/mcf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/lp/mcf_internal.h"
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

// Links shared across commodities, the way RouteBlocks shares a server's
// uplink and downlink and the WAN routes between every pair of servers.
struct SharedPools {
  std::vector<int> ups;
  std::vector<int> downs;
  std::vector<int> wan;
};

SharedPools MakeSharedPools(Rng& rng, McfInstance& inst) {
  SharedPools pools;
  auto add = [&](std::vector<int>& pool, int count, double lo, double hi) {
    for (int i = 0; i < count; ++i) {
      pool.push_back(static_cast<int>(inst.capacities.size()));
      inst.capacities.push_back(rng.Uniform(lo, hi));
    }
  };
  add(pools.ups, static_cast<int>(rng.UniformInt(1, 3)), 5.0, 50.0);
  add(pools.downs, static_cast<int>(rng.UniformInt(1, 3)), 5.0, 50.0);
  add(pools.wan, static_cast<int>(rng.UniformInt(2, 6)), 20.0, 200.0);
  return pools;
}

// A controller-shaped commodity over the shared pools: 1–3 paths from one
// uplink through 0–2 distinct WAN links to one downlink. Uncapped ones end
// on the shared downlink; now and then a path's middle repeats its uplink.
McfCommodity SharedPoolCommodity(Rng& rng, const SharedPools& pools) {
  McfCommodity com;
  const int up = pools.ups[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(pools.ups.size()) - 1))];
  const int down = pools.downs[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(pools.downs.size()) - 1))];
  const int npaths = static_cast<int>(rng.UniformInt(1, 3));
  for (int p = 0; p < npaths; ++p) {
    McfPath path;
    path.links.push_back(up);
    std::vector<int> deck = pools.wan;
    rng.Shuffle(deck);
    const int mids = static_cast<int>(rng.UniformInt(0, 2));
    path.links.insert(path.links.end(), deck.begin(), deck.begin() + mids);
    if (mids > 0 && rng.Bernoulli(0.1)) {
      path.links[static_cast<size_t>(mids)] = up;
    }
    path.links.push_back(down);
    com.paths.push_back(path);
  }
  if (rng.Bernoulli(0.7)) {
    com.demand = rng.Uniform(0.5, 10.0);
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
  const SharedPools pools = MakeSharedPools(rng, inst);
  const int ncom = static_cast<int>(rng.UniformInt(2, 14));
  for (int c = 0; c < ncom; ++c) {
    switch (rng.UniformInt(0, 5)) {
      case 0:  // Controller shape, private links, 3 paths.
        inst.commodities.push_back(StructuredCommodity(rng, inst, 3, 2));
        break;
      case 1:  // Controller shape, private links, 1 or 2 paths.
        inst.commodities.push_back(
            StructuredCommodity(rng, inst, static_cast<int>(rng.UniformInt(1, 2)), 2));
        break;
      case 2:  // Shared endpoints but long middles / more paths.
        inst.commodities.push_back(StructuredCommodity(
            rng, inst, static_cast<int>(rng.UniformInt(2, 5)), 4));
        break;
      case 3:
      case 4:  // Controller shape over shared links.
        inst.commodities.push_back(SharedPoolCommodity(rng, pools));
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

// The generator reaches every record shape and every guard: packed records
// of 1, 2 and 3 paths, and controller-shaped commodities sent to the CSR
// scan because their demand edge is shared or a middle repeats the uplink.
TEST(McfFptasParityTest, GeneratorCoversEveryPackingGuard) {
  int64_t packed_by_paths[4] = {0, 0, 0, 0};
  int64_t shared_last = 0;
  int64_t repeated_first = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const McfInstance inst = RandomInstance(seed);
    const mcf_internal::FlatMcf flat = mcf_internal::FlattenMcf(inst);
    const mcf_internal::FptasWorkspace ws(flat, 0.1);
    for (const mcf_internal::PackedCommodity& r : ws.packed) {
      ++packed_by_paths[(r.path[0] >= 0) + (r.path[1] >= 0) + (r.path[2] >= 0)];
    }
    std::vector<int> last_owner(flat.num_edges(), -1);
    std::vector<char> last_shared(flat.num_edges(), 0);
    for (const mcf_internal::FlatPath& p : flat.paths) {
      const int last = p.links.back();
      const int owner = last_owner[static_cast<size_t>(last)];
      if (owner >= 0 && owner != p.commodity) {
        last_shared[static_cast<size_t>(last)] = 1;
      }
      last_owner[static_cast<size_t>(last)] = p.commodity;
    }
    for (size_t c = 0; c < flat.commodity_paths.size(); ++c) {
      if (ws.com_record[c] >= 0) {
        continue;
      }
      for (int pi : flat.commodity_paths[c]) {
        const std::vector<int>& links = flat.paths[static_cast<size_t>(pi)].links;
        if (links.size() < 3 || links.size() > 5) {
          continue;
        }
        shared_last += last_shared[static_cast<size_t>(links.back())];
        repeated_first += std::count(links.begin() + 1, links.end() - 2, links.front());
      }
    }
  }
  EXPECT_GT(packed_by_paths[1], 0);
  EXPECT_GT(packed_by_paths[2], 0);
  EXPECT_GT(packed_by_paths[3], 0);
  EXPECT_GT(shared_last, 0);
  EXPECT_GT(repeated_first, 0);
}

// A push cap can end the loop mid-phase and mid-commodity; the records'
// flows and demand-edge lengths must still reach the caller's arrays.
TEST(McfFptasParityTest, PushCapMatchesReferenceLoopBitForBit) {
  for (int64_t cap : {1, 7, 100}) {
    for (uint64_t seed = 1; seed <= 60; ++seed) {
      const McfInstance inst = RandomInstance(seed);
      const mcf_internal::FlatMcf flat = mcf_internal::FlattenMcf(inst);
      if (flat.paths.empty()) {
        continue;
      }
      const double delta = mcf_internal::FptasDelta(flat, 0.1);
      mcf_internal::FptasWorkspace ws(flat, 0.1);
      std::vector<double> length = mcf_internal::InitialLengths(flat, delta);
      std::vector<double> raw_flow(flat.paths.size(), 0.0);
      const mcf_internal::FptasLoopStats stats =
          mcf_internal::RunFptasPushLoop(flat, ws, 0.1, delta, cap, length, raw_flow);

      std::vector<double> ref_length(flat.num_edges());
      for (size_t l = 0; l < flat.num_edges(); ++l) {
        ref_length[l] = delta / flat.cap[l];
      }
      std::vector<double> ref_flow(flat.paths.size(), 0.0);
      const int64_t ref_pushes =
          FptasPushLoopReference(flat, 0.1, delta, cap, ref_length, ref_flow);

      ASSERT_EQ(stats.pushes, ref_pushes) << "cap " << cap << " seed " << seed;
      for (size_t i = 0; i < ref_flow.size(); ++i) {
        ASSERT_EQ(Bits(raw_flow[i]), Bits(ref_flow[i]))
            << "cap " << cap << " seed " << seed << " path " << i;
      }
      for (size_t l = 0; l < ref_length.size(); ++l) {
        ASSERT_EQ(Bits(length[l]), Bits(ref_length[l]))
            << "cap " << cap << " seed " << seed << " edge " << l;
      }
    }
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
