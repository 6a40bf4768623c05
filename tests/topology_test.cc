#include "src/topology/topology.h"

#include <gtest/gtest.h>

#include "src/common/types.h"

namespace bds {
namespace {

TEST(TopologyTest, EmptyTopology) {
  Topology t;
  EXPECT_EQ(t.num_dcs(), 0);
  EXPECT_EQ(t.num_servers(), 0);
  EXPECT_EQ(t.num_links(), 0);
}

TEST(TopologyTest, AddDatacenterAssignsSequentialIds) {
  Topology t;
  EXPECT_EQ(t.AddDatacenter("a"), 0);
  EXPECT_EQ(t.AddDatacenter("b"), 1);
  EXPECT_EQ(t.dc(0).name, "a");
  EXPECT_EQ(t.dc(1).name, "b");
}

TEST(TopologyTest, AddServerCreatesNicLinks) {
  Topology t;
  DcId dc = t.AddDatacenter("a");
  auto s = t.AddServer(dc, MBps(10.0), MBps(20.0));
  ASSERT_TRUE(s.ok());
  const Server& srv = t.server(*s);
  EXPECT_EQ(srv.dc, dc);
  EXPECT_DOUBLE_EQ(srv.up_capacity, MBps(10.0));
  EXPECT_DOUBLE_EQ(srv.down_capacity, MBps(20.0));

  const Link& up = t.link(srv.uplink);
  EXPECT_EQ(up.type, LinkType::kServerUp);
  EXPECT_DOUBLE_EQ(up.capacity, MBps(10.0));
  EXPECT_EQ(up.server, *s);

  const Link& down = t.link(srv.downlink);
  EXPECT_EQ(down.type, LinkType::kServerDown);
  EXPECT_DOUBLE_EQ(down.capacity, MBps(20.0));

  EXPECT_EQ(t.ServersIn(dc).size(), 1u);
  EXPECT_EQ(t.ServersIn(dc)[0], *s);
}

TEST(TopologyTest, AddServerRejectsBadInput) {
  Topology t;
  DcId dc = t.AddDatacenter("a");
  EXPECT_FALSE(t.AddServer(dc, 0.0, 1.0).ok());
  EXPECT_FALSE(t.AddServer(dc, 1.0, -1.0).ok());
  EXPECT_FALSE(t.AddServer(99, 1.0, 1.0).ok());
}

TEST(TopologyTest, AddWanLink) {
  Topology t;
  DcId a = t.AddDatacenter("a");
  DcId b = t.AddDatacenter("b");
  auto l = t.AddWanLink(a, b, Gbps(10.0));
  ASSERT_TRUE(l.ok());
  const Link& link = t.link(*l);
  EXPECT_EQ(link.type, LinkType::kWan);
  EXPECT_EQ(link.src_dc, a);
  EXPECT_EQ(link.dst_dc, b);
  ASSERT_EQ(t.WanLinksFrom(a).size(), 1u);
  EXPECT_EQ(t.WanLinksFrom(a)[0], *l);
  EXPECT_TRUE(t.WanLinksFrom(b).empty());
}

TEST(TopologyTest, AddWanLinkRejectsBadInput) {
  Topology t;
  DcId a = t.AddDatacenter("a");
  DcId b = t.AddDatacenter("b");
  EXPECT_FALSE(t.AddWanLink(a, a, 1.0).ok());
  EXPECT_FALSE(t.AddWanLink(a, b, 0.0).ok());
  EXPECT_FALSE(t.AddWanLink(a, 77, 1.0).ok());
}

TEST(TopologyTest, ParallelWanLinksAllowed) {
  Topology t;
  DcId a = t.AddDatacenter("a");
  DcId b = t.AddDatacenter("b");
  ASSERT_TRUE(t.AddWanLink(a, b, 1.0).ok());
  ASSERT_TRUE(t.AddWanLink(a, b, 2.0).ok());
  EXPECT_EQ(t.WanLinksFrom(a).size(), 2u);
}

TEST(TopologyTest, SetLinkCapacity) {
  Topology t;
  DcId a = t.AddDatacenter("a");
  DcId b = t.AddDatacenter("b");
  LinkId l = t.AddWanLink(a, b, 5.0).value();
  ASSERT_TRUE(t.SetLinkCapacity(l, 9.0).ok());
  EXPECT_DOUBLE_EQ(t.link(l).capacity, 9.0);
  EXPECT_FALSE(t.SetLinkCapacity(l, 0.0).ok());
  EXPECT_FALSE(t.SetLinkCapacity(999, 1.0).ok());
}

TEST(TopologyTest, DcLatencySymmetricAndGrows) {
  Topology t;
  DcId a = t.AddDatacenter("a");
  DcId b = t.AddDatacenter("b");
  t.SetDcLatency(a, b, 0.03);
  EXPECT_DOUBLE_EQ(t.DcLatency(a, b), 0.03);
  EXPECT_DOUBLE_EQ(t.DcLatency(b, a), 0.03);
  // Adding a DC later must preserve earlier latencies.
  DcId c = t.AddDatacenter("c");
  EXPECT_DOUBLE_EQ(t.DcLatency(a, b), 0.03);
  EXPECT_DOUBLE_EQ(t.DcLatency(a, c), 0.0);
}

TEST(TopologyTest, SummaryMentionsCounts) {
  Topology t;
  DcId a = t.AddDatacenter("a");
  DcId b = t.AddDatacenter("b");
  ASSERT_TRUE(t.AddServer(a, 1.0, 1.0).ok());
  ASSERT_TRUE(t.AddWanLink(a, b, 1.0).ok());
  std::string s = t.Summary();
  EXPECT_NE(s.find("2 DCs"), std::string::npos);
  EXPECT_NE(s.find("1 servers"), std::string::npos);
  EXPECT_NE(s.find("1 WAN links"), std::string::npos);
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(MB(2.0), 2e6);
  EXPECT_DOUBLE_EQ(GB(1.0), 1e9);
  EXPECT_DOUBLE_EQ(TB(1.0), 1e12);
  EXPECT_DOUBLE_EQ(Mbps(8.0), 1e6);     // 8 Mbit/s = 1 MB/s
  EXPECT_DOUBLE_EQ(Gbps(8.0), 1e9);
  EXPECT_DOUBLE_EQ(MBps(1.0), 1e6);
  EXPECT_DOUBLE_EQ(GBps(1.0), 1e9);
  EXPECT_DOUBLE_EQ(ToMinutes(120.0), 2.0);
  EXPECT_DOUBLE_EQ(Minutes(2.0), 120.0);
  EXPECT_DOUBLE_EQ(Hours(1.0), 3600.0);
}

}  // namespace
}  // namespace bds
