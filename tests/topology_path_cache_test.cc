#include "src/topology/path_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/topology/builders.h"
#include "src/topology/path.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"
#include "tests/oracles.h"

namespace bds {
namespace {

void ExpectSamePaths(const std::vector<ServerPath>& got, const std::vector<ServerPath>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src) << "path " << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << "path " << i;
    EXPECT_EQ(got[i].links, want[i].links) << "path " << i;
    EXPECT_EQ(got[i].wan_route_index, want[i].wan_route_index) << "path " << i;
  }
}

TEST(ServerPathCacheTest, MatchesEnumerateServerPathsOnFullMesh) {
  auto topo = BuildFullMesh(4, 3, 10.0, 1.0, 1.0);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 3);
  ASSERT_TRUE(routing.ok());

  ServerPathCache cache(&*topo, &*routing, 3);
  std::vector<ServerPath> got;
  for (ServerId src = 0; src < topo->num_servers(); ++src) {
    for (ServerId dst = 0; dst < topo->num_servers(); ++dst) {
      if (src == dst) {
        continue;
      }
      cache.EnsurePair(topo->server(src).dc, topo->server(dst).dc);
      cache.MaterializePaths(src, dst, &got);
      ExpectSamePaths(got, EnumerateServerPaths(*topo, *routing, src, dst));
    }
  }
}

TEST(ServerPathCacheTest, MatchesEnumerateOnGeoTopology) {
  GeoTopologyOptions opt;
  opt.num_dcs = 6;
  opt.servers_per_dc = 2;
  opt.seed = 7;
  auto topo = BuildGeoTopology(opt);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 4);
  ASSERT_TRUE(routing.ok());

  ServerPathCache cache(&*topo, &*routing, 4);
  std::vector<ServerPath> got;
  for (ServerId src = 0; src < topo->num_servers(); ++src) {
    for (ServerId dst = 0; dst < topo->num_servers(); ++dst) {
      if (src == dst) {
        continue;
      }
      cache.EnsurePair(topo->server(src).dc, topo->server(dst).dc);
      cache.MaterializePaths(src, dst, &got);
      ExpectSamePaths(got, EnumerateServerPaths(*topo, *routing, src, dst));
    }
  }
}

TEST(ServerPathCacheTest, TruncatesToMaxRoutes) {
  // Full mesh of 3 DCs with k=3 yields a direct route plus detours; a cache
  // capped at 1 must keep only the primary route.
  auto topo = BuildFullMesh(3, 1, 10.0, 1.0, 1.0);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 3);
  ASSERT_TRUE(routing.ok());
  ServerId s0 = topo->ServersIn(0)[0];
  ServerId s1 = topo->ServersIn(1)[0];
  auto full = EnumerateServerPaths(*topo, *routing, s0, s1);
  ASSERT_GT(full.size(), 1u);

  ServerPathCache cache(&*topo, &*routing, 1);
  cache.EnsurePair(0, 1);
  std::vector<ServerPath> got;
  cache.MaterializePaths(s0, s1, &got);
  full.resize(1);
  ExpectSamePaths(got, full);
}

TEST(ServerPathCacheTest, IntraDcPairs) {
  auto topo = BuildFullMesh(2, 3, 10.0, 1.0, 1.0);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 2);
  ASSERT_TRUE(routing.ok());
  ServerPathCache cache(&*topo, &*routing, 2);
  const auto& servers = topo->ServersIn(0);
  cache.EnsurePair(0, 0);
  std::vector<ServerPath> got;
  cache.MaterializePaths(servers[0], servers[1], &got);
  ExpectSamePaths(got, EnumerateServerPaths(*topo, *routing, servers[0], servers[1]));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].wan_route_index, -1);
}

TEST(ServerPathCacheTest, MissesAccumulateOncePerPair) {
  auto topo = BuildFullMesh(3, 2, 10.0, 1.0, 1.0);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 3);
  ASSERT_TRUE(routing.ok());
  ServerPathCache cache(&*topo, &*routing, 3);
  EXPECT_EQ(cache.misses(), 0);
  cache.EnsurePair(0, 1);
  EXPECT_EQ(cache.misses(), 1);
  cache.EnsurePair(0, 1);  // Hit: already built.
  EXPECT_EQ(cache.misses(), 1);
  cache.EnsurePair(1, 0);  // Opposite direction is a distinct pair.
  EXPECT_EQ(cache.misses(), 2);
}

TEST(ServerPathCacheTest, InvalidateDropsSkeletonsAndBumpsGeneration) {
  auto topo = BuildFullMesh(3, 2, 10.0, 1.0, 1.0);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 3);
  ASSERT_TRUE(routing.ok());
  ServerPathCache cache(&*topo, &*routing, 3);
  cache.EnsurePair(0, 1);
  ASSERT_EQ(cache.generation(), 0);
  ASSERT_EQ(cache.misses(), 1);

  cache.Invalidate();
  EXPECT_EQ(cache.generation(), 1);
  // The pair must rebuild after invalidation...
  cache.EnsurePair(0, 1);
  EXPECT_EQ(cache.misses(), 2);
  // ...and still materialize correct paths.
  ServerId s0 = topo->ServersIn(0)[0];
  ServerId s1 = topo->ServersIn(1)[0];
  std::vector<ServerPath> got;
  cache.MaterializePaths(s0, s1, &got);
  ExpectSamePaths(got, EnumerateServerPaths(*topo, *routing, s0, s1));
}

TEST(ServerPathCacheTest, ReflectsRebuiltRoutingTableAfterInvalidate) {
  // Cache skeletons snapshot the routing table's route sets. Swap the table
  // the cache points at for one with fewer routes (as a rebuild after a link
  // fault would) and check Invalidate() is what makes the cache catch up.
  Topology topo;
  DcId a = topo.AddDatacenter("a");
  DcId b = topo.AddDatacenter("b");
  DcId c = topo.AddDatacenter("c");
  ASSERT_TRUE(topo.AddWanLink(a, b, 6.0).ok());
  ASSERT_TRUE(topo.AddWanLink(b, c, 3.0).ok());
  ASSERT_TRUE(topo.AddWanLink(a, c, 2.0).ok());
  ServerId sa = topo.AddServer(a, 10.0, 10.0).value();
  ServerId sc = topo.AddServer(c, 10.0, 10.0).value();

  auto routing = WanRoutingTable::Build(topo, 2);
  ASSERT_TRUE(routing.ok());
  ServerPathCache cache(&topo, &*routing, 2);
  cache.EnsurePair(a, c);
  std::vector<ServerPath> got;
  cache.MaterializePaths(sa, sc, &got);
  ASSERT_EQ(got.size(), 2u);  // Direct route plus the detour via b.

  auto rebuilt = WanRoutingTable::Build(topo, 1);
  ASSERT_TRUE(rebuilt.ok());
  *routing = *rebuilt;  // Route sets changed in place under the cache.
  cache.Invalidate();
  cache.EnsurePair(a, c);
  cache.MaterializePaths(sa, sc, &got);
  ASSERT_EQ(got.size(), 1u);
  ExpectSamePaths(got, EnumerateServerPaths(topo, *routing, sa, sc));
}

}  // namespace
}  // namespace bds
