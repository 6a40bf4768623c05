#include "src/topology/routing.h"

#include <gtest/gtest.h>

#include <set>

#include "src/topology/builders.h"
#include "src/topology/path.h"
#include "src/topology/topology.h"
#include "tests/oracles.h"

namespace bds {
namespace {

// Line topology a -> b -> c plus a direct a -> c link.
struct LineWithShortcut {
  Topology topo;
  DcId a, b, c;
  LinkId ab, bc, ac;
};

LineWithShortcut MakeLineWithShortcut() {
  LineWithShortcut t;
  t.a = t.topo.AddDatacenter("a");
  t.b = t.topo.AddDatacenter("b");
  t.c = t.topo.AddDatacenter("c");
  t.ab = t.topo.AddWanLink(t.a, t.b, 6.0).value();
  t.bc = t.topo.AddWanLink(t.b, t.c, 3.0).value();
  t.ac = t.topo.AddWanLink(t.a, t.c, 2.0).value();
  return t;
}

TEST(ShortestWanRouteTest, PrefersFewerHops) {
  auto t = MakeLineWithShortcut();
  auto r = ShortestWanRoute(t.topo, t.a, t.c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->hops(), 1);
  ASSERT_EQ(r->links.size(), 1u);
  EXPECT_EQ(r->links[0], t.ac);
  EXPECT_EQ(r->dcs, (std::vector<DcId>{t.a, t.c}));
}

TEST(ShortestWanRouteTest, MultiHop) {
  Topology topo;
  DcId a = topo.AddDatacenter("a");
  DcId b = topo.AddDatacenter("b");
  DcId c = topo.AddDatacenter("c");
  LinkId ab = topo.AddWanLink(a, b, 1.0).value();
  LinkId bc = topo.AddWanLink(b, c, 1.0).value();
  auto r = ShortestWanRoute(topo, a, c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->hops(), 2);
  EXPECT_EQ(r->links, (std::vector<LinkId>{ab, bc}));
}

TEST(ShortestWanRouteTest, TieBrokenTowardLargerBottleneck) {
  Topology topo;
  DcId a = topo.AddDatacenter("a");
  DcId c = topo.AddDatacenter("c");
  topo.AddWanLink(a, c, 2.0).value();
  LinkId big = topo.AddWanLink(a, c, 5.0).value();
  auto r = ShortestWanRoute(topo, a, c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->links[0], big);
}

TEST(ShortestWanRouteTest, UnreachableReturnsError) {
  Topology topo;
  DcId a = topo.AddDatacenter("a");
  DcId b = topo.AddDatacenter("b");
  auto r = ShortestWanRoute(topo, a, b);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ShortestWanRouteTest, RejectsSelfRoute) {
  Topology topo;
  DcId a = topo.AddDatacenter("a");
  EXPECT_FALSE(ShortestWanRoute(topo, a, a).ok());
}

TEST(ShortestWanRouteTest, BannedLinkForcesDetour) {
  auto t = MakeLineWithShortcut();
  std::vector<bool> banned(static_cast<size_t>(t.topo.num_links()), false);
  banned[static_cast<size_t>(t.ac)] = true;
  auto r = ShortestWanRoute(t.topo, t.a, t.c, &banned);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->hops(), 2);
  EXPECT_EQ(r->links, (std::vector<LinkId>{t.ab, t.bc}));
}

TEST(ShortestWanRouteTest, BannedDcBlocksTransit) {
  auto t = MakeLineWithShortcut();
  std::vector<bool> banned_links(static_cast<size_t>(t.topo.num_links()), false);
  banned_links[static_cast<size_t>(t.ac)] = true;
  std::vector<bool> banned_dcs(static_cast<size_t>(t.topo.num_dcs()), false);
  banned_dcs[static_cast<size_t>(t.b)] = true;
  auto r = ShortestWanRoute(t.topo, t.a, t.c, &banned_links, &banned_dcs);
  EXPECT_FALSE(r.ok());
}

TEST(KShortestTest, EnumeratesBothRoutes) {
  auto t = MakeLineWithShortcut();
  auto routes = KShortestWanRoutes(t.topo, t.a, t.c, 5);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0].hops(), 1);  // direct first (fewest hops)
  EXPECT_EQ(routes[1].hops(), 2);
  EXPECT_EQ(routes[1].links, (std::vector<LinkId>{t.ab, t.bc}));
}

TEST(KShortestTest, RespectsK) {
  auto t = MakeLineWithShortcut();
  auto routes = KShortestWanRoutes(t.topo, t.a, t.c, 1);
  EXPECT_EQ(routes.size(), 1u);
}

TEST(KShortestTest, RoutesAreLoopless) {
  GeoTopologyOptions opt;
  opt.num_dcs = 6;
  opt.servers_per_dc = 1;
  opt.seed = 3;
  auto topo = BuildGeoTopology(opt);
  ASSERT_TRUE(topo.ok());
  auto routes = KShortestWanRoutes(*topo, 0, 3, 8);
  ASSERT_FALSE(routes.empty());
  for (const auto& r : routes) {
    std::set<DcId> seen(r.dcs.begin(), r.dcs.end());
    EXPECT_EQ(seen.size(), r.dcs.size()) << "route revisits a DC";
    EXPECT_EQ(r.dcs.front(), 0);
    EXPECT_EQ(r.dcs.back(), 3);
    EXPECT_EQ(r.dcs.size(), r.links.size() + 1);
  }
  // All routes distinct.
  for (size_t i = 0; i < routes.size(); ++i) {
    for (size_t j = i + 1; j < routes.size(); ++j) {
      EXPECT_NE(routes[i].links, routes[j].links);
    }
  }
}

TEST(KShortestTest, SortedByHops) {
  GeoTopologyOptions opt;
  opt.num_dcs = 7;
  opt.servers_per_dc = 1;
  opt.seed = 11;
  auto topo = BuildGeoTopology(opt);
  ASSERT_TRUE(topo.ok());
  auto routes = KShortestWanRoutes(*topo, 1, 5, 6);
  for (size_t i = 1; i < routes.size(); ++i) {
    EXPECT_GE(routes[i].hops(), routes[i - 1].hops());
  }
}

TEST(WanRoutingTableTest, AllPairsPopulated) {
  auto topo = BuildFullMesh(4, 1, 10.0, 1.0, 1.0);
  ASSERT_TRUE(topo.ok());
  auto table = WanRoutingTable::Build(*topo, 3);
  ASSERT_TRUE(table.ok());
  for (DcId a = 0; a < 4; ++a) {
    for (DcId b = 0; b < 4; ++b) {
      if (a == b) {
        EXPECT_TRUE(table->Routes(a, b).empty());
        continue;
      }
      EXPECT_TRUE(table->Reachable(a, b));
      ASSERT_FALSE(table->Routes(a, b).empty());
      EXPECT_EQ(table->Routes(a, b)[0].hops(), 1);  // Full mesh: direct link is primary.
    }
  }
}

TEST(WanRoutingTableTest, RejectsBadK) {
  Topology topo;
  topo.AddDatacenter("a");
  EXPECT_FALSE(WanRoutingTable::Build(topo, 0).ok());
}

TEST(WanRouteTest, BottleneckCapacity) {
  auto t = MakeLineWithShortcut();
  auto r = KShortestWanRoutes(t.topo, t.a, t.c, 2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0].BottleneckCapacity(t.topo), 2.0);  // direct
  EXPECT_DOUBLE_EQ(r[1].BottleneckCapacity(t.topo), 3.0);  // via b
}

TEST(ServerPathTest, InterDcPathIncludesNicsAndWan) {
  auto t = MakeLineWithShortcut();
  ServerId sa = t.topo.AddServer(t.a, 10.0, 10.0).value();
  ServerId sc = t.topo.AddServer(t.c, 10.0, 10.0).value();
  auto routing = WanRoutingTable::Build(t.topo, 3);
  ASSERT_TRUE(routing.ok());
  auto p = MakeServerPath(t.topo, *routing, sa, sc, 0);
  ASSERT_TRUE(p.ok());
  // Uplink + 1 WAN link + downlink.
  ASSERT_EQ(p->links.size(), 3u);
  EXPECT_EQ(t.topo.link(p->links[0]).type, LinkType::kServerUp);
  EXPECT_EQ(t.topo.link(p->links[1]).type, LinkType::kWan);
  EXPECT_EQ(t.topo.link(p->links[2]).type, LinkType::kServerDown);
  EXPECT_EQ(p->wan_route_index, 0);
  EXPECT_DOUBLE_EQ(p->BottleneckCapacity(t.topo), 2.0);
}

TEST(ServerPathTest, IntraDcPathSkipsWan) {
  Topology topo;
  DcId a = topo.AddDatacenter("a");
  ServerId s1 = topo.AddServer(a, 10.0, 10.0).value();
  ServerId s2 = topo.AddServer(a, 10.0, 10.0).value();
  auto routing = WanRoutingTable::Build(topo, 2);
  ASSERT_TRUE(routing.ok());
  auto p = MakeServerPath(topo, *routing, s1, s2);
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->links.size(), 2u);
  EXPECT_EQ(p->wan_route_index, -1);
}

TEST(ServerPathTest, RejectsSelfAndBadIds) {
  Topology topo;
  DcId a = topo.AddDatacenter("a");
  ServerId s1 = topo.AddServer(a, 10.0, 10.0).value();
  auto routing = WanRoutingTable::Build(topo, 2);
  ASSERT_TRUE(routing.ok());
  EXPECT_FALSE(MakeServerPath(topo, *routing, s1, s1).ok());
  EXPECT_FALSE(MakeServerPath(topo, *routing, s1, 99).ok());
}

TEST(ServerPathTest, EnumerateReturnsOnePathPerWanRoute) {
  auto t = MakeLineWithShortcut();
  ServerId sa = t.topo.AddServer(t.a, 10.0, 10.0).value();
  ServerId sc = t.topo.AddServer(t.c, 10.0, 10.0).value();
  auto routing = WanRoutingTable::Build(t.topo, 4);
  ASSERT_TRUE(routing.ok());
  auto paths = EnumerateServerPaths(t.topo, *routing, sa, sc);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].links, paths[1].links);
}

TEST(ServerPathTest, ToStringIsInformative) {
  auto t = MakeLineWithShortcut();
  ServerId sa = t.topo.AddServer(t.a, 10.0, 10.0).value();
  ServerId sc = t.topo.AddServer(t.c, 10.0, 10.0).value();
  auto routing = WanRoutingTable::Build(t.topo, 2);
  ASSERT_TRUE(routing.ok());
  auto p = MakeServerPath(t.topo, *routing, sa, sc);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->ToString(t.topo).empty());
}

void ExpectSamePaths(const std::vector<ServerPath>& got, const std::vector<ServerPath>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src) << "path " << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << "path " << i;
    EXPECT_EQ(got[i].links, want[i].links) << "path " << i;
    EXPECT_EQ(got[i].wan_route_index, want[i].wan_route_index) << "path " << i;
  }
}

// Every ordered server pair, one reused output buffer (so a pair with fewer
// routes than the last one also checks the shrink).
void ExpectAllPairsMatchEnumerate(const Topology& topo, const WanRoutingTable& routing) {
  std::vector<ServerPath> got;
  for (ServerId src = 0; src < topo.num_servers(); ++src) {
    for (ServerId dst = 0; dst < topo.num_servers(); ++dst) {
      MakeServerPaths(topo, routing, src, dst, routing.max_routes_per_pair(), &got);
      ExpectSamePaths(got, EnumerateServerPaths(topo, routing, src, dst));
    }
  }
}

TEST(MakeServerPathsTest, MatchesEnumerateOnFullMesh) {
  auto topo = BuildFullMesh(4, 3, 10.0, 1.0, 1.0);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 3);
  ASSERT_TRUE(routing.ok());
  ExpectAllPairsMatchEnumerate(*topo, *routing);
}

TEST(MakeServerPathsTest, MatchesEnumerateOnGeoTopology) {
  GeoTopologyOptions opt;
  opt.num_dcs = 6;
  opt.servers_per_dc = 2;
  opt.seed = 7;
  auto topo = BuildGeoTopology(opt);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 4);
  ASSERT_TRUE(routing.ok());
  ExpectAllPairsMatchEnumerate(*topo, *routing);
}

TEST(MakeServerPathsTest, TruncatesToMaxRoutes) {
  // Full mesh of 3 DCs with k=3 yields a direct route plus detours; a cap of
  // 1 keeps only the primary route.
  auto topo = BuildFullMesh(3, 1, 10.0, 1.0, 1.0);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 3);
  ASSERT_TRUE(routing.ok());
  ServerId s0 = topo->ServersIn(0)[0];
  ServerId s1 = topo->ServersIn(1)[0];
  auto full = EnumerateServerPaths(*topo, *routing, s0, s1);
  ASSERT_GT(full.size(), 1u);

  std::vector<ServerPath> got;
  MakeServerPaths(*topo, *routing, s0, s1, 1, &got);
  full.resize(1);
  ExpectSamePaths(got, full);
}

TEST(MakeServerPathsTest, IntraDcPairGetsOneNicOnlyPath) {
  auto topo = BuildFullMesh(2, 3, 10.0, 1.0, 1.0);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 2);
  ASSERT_TRUE(routing.ok());
  const auto& servers = topo->ServersIn(0);
  std::vector<ServerPath> got;
  MakeServerPaths(*topo, *routing, servers[0], servers[1], 2, &got);
  ExpectSamePaths(got, EnumerateServerPaths(*topo, *routing, servers[0], servers[1]));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].wan_route_index, -1);
  EXPECT_EQ(got[0].links.size(), 2u);
}

TEST(MakeServerPathsTest, SelfPairGetsNoPath) {
  auto topo = BuildFullMesh(2, 2, 10.0, 1.0, 1.0);
  ASSERT_TRUE(topo.ok());
  auto routing = WanRoutingTable::Build(*topo, 2);
  ASSERT_TRUE(routing.ok());
  std::vector<ServerPath> got(3);  // Stale content must be cleared.
  MakeServerPaths(*topo, *routing, 0, 0, 2, &got);
  EXPECT_TRUE(got.empty());
}

TEST(MakeServerPathsTest, UnreachableDcPairGetsNoPath) {
  Topology topo;
  DcId a = topo.AddDatacenter("a");
  DcId b = topo.AddDatacenter("b");  // No WAN link between a and b.
  ServerId sa = topo.AddServer(a, 10.0, 10.0).value();
  ServerId sb = topo.AddServer(b, 10.0, 10.0).value();
  auto routing = WanRoutingTable::Build(topo, 2);
  ASSERT_TRUE(routing.ok());
  ASSERT_FALSE(routing->Reachable(a, b));
  std::vector<ServerPath> got(1);
  MakeServerPaths(topo, *routing, sa, sb, 2, &got);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(EnumerateServerPaths(topo, *routing, sa, sb).empty());
}

}  // namespace
}  // namespace bds
