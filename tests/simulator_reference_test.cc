// Hand-computed cases for ReferenceSimulator (tests/oracles.h), the event
// loop the simulator parity suite checks NetworkSimulator against. Every
// expected time and rate below is worked out from the link capacities.

#include <gtest/gtest.h>

#include <vector>

#include "src/topology/topology.h"
#include "tests/oracles.h"

namespace bds {
namespace {

// One source server in DC a (10 MB/s NIC) and two destination servers in DC
// b (100 MB/s NICs) behind a 100 MB/s WAN link: the source NIC is every
// path's bottleneck.
struct Net {
  Topology topo;
  std::vector<LinkId> to_d0;
  std::vector<LinkId> to_d1;

  Net() {
    DcId a = topo.AddDatacenter("a");
    DcId b = topo.AddDatacenter("b");
    ServerId src = topo.AddServer(a, MBps(10.0), MBps(10.0)).value();
    ServerId d0 = topo.AddServer(b, MBps(100.0), MBps(100.0)).value();
    ServerId d1 = topo.AddServer(b, MBps(100.0), MBps(100.0)).value();
    LinkId wan = topo.AddWanLink(a, b, MBps(100.0)).value();
    to_d0 = {topo.server(src).uplink, wan, topo.server(d0).downlink};
    to_d1 = {topo.server(src).uplink, wan, topo.server(d1).downlink};
  }
  LinkId nic() const { return to_d0[0]; }
};

TEST(ReferenceSimulatorTest, TwoFairFlowsSplitALinkAndFinishAtTheComputedTimes) {
  // Both run at 5 MB/s: the 10 MB flow ends at 2 s, leaving the other 20 MB,
  // which it then moves at the full 10 MB/s by 4 s.
  Net net;
  ReferenceSimulator sim(&net.topo);
  std::vector<FlowRecord> done;
  sim.SetCompletionCallback([&](const FlowRecord& r) { done.push_back(r); });
  const FlowId a = sim.StartFlow(net.to_d0, MB(10.0)).value();
  const FlowId b = sim.StartFlow(net.to_d1, MB(30.0)).value();
  ASSERT_TRUE(sim.AdvanceTo(1.0).ok());
  EXPECT_DOUBLE_EQ(sim.FindFlow(a)->current_rate, MBps(5.0));
  EXPECT_DOUBLE_EQ(sim.FindFlow(b)->current_rate, MBps(5.0));
  EXPECT_DOUBLE_EQ(sim.LinkBulkRate(net.nic()), MBps(10.0));
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  EXPECT_DOUBLE_EQ(*end, 4.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, a);
  EXPECT_DOUBLE_EQ(done[0].end_time, 2.0);
  EXPECT_EQ(done[1].id, b);
  EXPECT_DOUBLE_EQ(done[1].end_time, 4.0);
  EXPECT_DOUBLE_EQ(done[1].bytes, MB(30.0));
  EXPECT_EQ(sim.num_completion_events(), 2);
  EXPECT_EQ(sim.LinkBulkRate(net.nic()), 0.0);
}

TEST(ReferenceSimulatorTest, TwoPinsOversubscribeANicAndAreScaledDown) {
  // Pins of 8 and 12 MB/s load the 10 MB/s NIC twice over: both are halved.
  Net net;
  ReferenceSimulator sim(&net.topo);
  const FlowId a = sim.StartFlow(net.to_d0, MB(100.0), MBps(8.0)).value();
  const FlowId b = sim.StartFlow(net.to_d1, MB(100.0), MBps(12.0)).value();
  ASSERT_TRUE(sim.AdvanceTo(1.0).ok());
  EXPECT_DOUBLE_EQ(sim.FindFlow(a)->current_rate, MBps(4.0));
  EXPECT_DOUBLE_EQ(sim.FindFlow(b)->current_rate, MBps(6.0));
  EXPECT_DOUBLE_EQ(sim.LinkBulkRate(net.nic()), MBps(10.0));
  EXPECT_NEAR(sim.MaxCapacityViolation(), 0.0, 1e-12);
}

TEST(ReferenceSimulatorTest, CancelFlowReturnsTheDeliveredBytes) {
  // 3 s at 10 MB/s delivers 30 MB; the cancelled flow never completes.
  Net net;
  ReferenceSimulator sim(&net.topo);
  int completions = 0;
  sim.SetCompletionCallback([&](const FlowRecord&) { ++completions; });
  const FlowId a = sim.StartFlow(net.to_d0, MB(100.0)).value();
  ASSERT_TRUE(sim.AdvanceTo(3.0).ok());
  auto delivered = sim.CancelFlow(a);
  ASSERT_TRUE(delivered.ok());
  EXPECT_DOUBLE_EQ(*delivered, MB(30.0));
  EXPECT_EQ(sim.FindFlow(a), nullptr);
  EXPECT_EQ(sim.num_active_flows(), 0);
  EXPECT_EQ(sim.LinkBulkRate(net.nic()), 0.0);
  EXPECT_FALSE(sim.CancelFlow(a).ok());
  ASSERT_TRUE(sim.RunUntilIdle().ok());
  EXPECT_EQ(completions, 0);
}

TEST(ReferenceSimulatorTest, DeadLinkMakesRunUntilIdleReportNoProgress) {
  // At fault factor 0 the NIC carries nothing, so the flow cannot finish;
  // healed at 5 s, it moves its 10 MB in 1 s.
  Net net;
  ReferenceSimulator sim(&net.topo);
  const FlowId a = sim.StartFlow(net.to_d0, MB(10.0)).value();
  ASSERT_TRUE(sim.SetLinkFaultFactor(net.nic(), 0.0).ok());
  EXPECT_FALSE(sim.RunUntilIdle().ok());
  EXPECT_EQ(sim.FindFlow(a)->current_rate, 0.0);
  ASSERT_TRUE(sim.AdvanceTo(5.0).ok());
  ASSERT_TRUE(sim.SetLinkFaultFactor(net.nic(), 1.0).ok());
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  EXPECT_DOUBLE_EQ(*end, 6.0);
}

TEST(ReferenceSimulatorTest, SimultaneousCompletionsFormOneBatch) {
  // Two equal fair flows share the NIC and end together at 2 s: one event,
  // and each callback sees the other flow already gone.
  Net net;
  ReferenceSimulator sim(&net.topo);
  std::vector<FlowId> seen_active;
  FlowId a = kInvalidFlow;
  FlowId b = kInvalidFlow;
  sim.SetCompletionCallback([&](const FlowRecord& r) {
    const FlowId other = r.id == a ? b : a;
    if (sim.FindFlow(other) != nullptr) {
      seen_active.push_back(other);
    }
  });
  a = sim.StartFlow(net.to_d0, MB(10.0)).value();
  b = sim.StartFlow(net.to_d1, MB(10.0)).value();
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  EXPECT_DOUBLE_EQ(*end, 2.0);
  EXPECT_EQ(sim.num_completion_events(), 1);
  EXPECT_TRUE(seen_active.empty());
}

}  // namespace
}  // namespace bds
