#include <gtest/gtest.h>

#include "src/control/monitors.h"
#include "src/control/replication.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

TEST(ControllerReplicaSetTest, StartsWithMaster) {
  ControllerReplicaSet set;
  EXPECT_TRUE(set.HasMaster(0.0));
  EXPECT_EQ(set.MasterIndex(0.0), 0);
}

TEST(ControllerReplicaSetTest, FailoverAfterDelay) {
  ControllerReplicaSet::Options opt;
  opt.num_replicas = 3;
  opt.failover_delay = 2.0;
  ControllerReplicaSet set(opt);
  ASSERT_TRUE(set.FailReplica(0, 10.0).ok());
  EXPECT_FALSE(set.HasMaster(10.0));
  EXPECT_FALSE(set.HasMaster(11.9));
  EXPECT_TRUE(set.HasMaster(12.0));
  EXPECT_EQ(set.MasterIndex(12.0), 1);
  EXPECT_EQ(set.elections(), 1);
}

TEST(ControllerReplicaSetTest, AllDownMeansHeadless) {
  ControllerReplicaSet set;
  ASSERT_TRUE(set.FailReplica(0, 0.0).ok());
  ASSERT_TRUE(set.FailReplica(1, 0.0).ok());
  ASSERT_TRUE(set.FailReplica(2, 0.0).ok());
  EXPECT_FALSE(set.HasMaster(100.0));
  // Recovery restores a master after the failover delay.
  ASSERT_TRUE(set.RecoverReplica(1, 100.0).ok());
  EXPECT_TRUE(set.HasMaster(103.0));
  EXPECT_EQ(set.MasterIndex(103.0), 1);
}

TEST(ControllerReplicaSetTest, NonMasterFailureDoesNotDisrupt) {
  ControllerReplicaSet set;
  ASSERT_TRUE(set.FailReplica(2, 5.0).ok());
  EXPECT_TRUE(set.HasMaster(5.0));
  EXPECT_EQ(set.MasterIndex(5.0), 0);
  EXPECT_EQ(set.elections(), 0);
}

TEST(ControllerReplicaSetTest, CascadingFailures) {
  ControllerReplicaSet::Options opt;
  opt.failover_delay = 1.0;
  ControllerReplicaSet set(opt);
  ASSERT_TRUE(set.FailReplica(0, 0.0).ok());
  EXPECT_TRUE(set.HasMaster(1.0));  // Replica 1 takes over at t=1.
  ASSERT_TRUE(set.FailReplica(1, 2.0).ok());
  EXPECT_FALSE(set.HasMaster(2.5));
  EXPECT_TRUE(set.HasMaster(3.0));  // Replica 2.
  EXPECT_EQ(set.MasterIndex(3.0), 2);
}

TEST(ControllerReplicaSetTest, IdempotentOperations) {
  ControllerReplicaSet set;
  ASSERT_TRUE(set.FailReplica(1, 0.0).ok());
  ASSERT_TRUE(set.FailReplica(1, 1.0).ok());  // Double fail: no-op.
  ASSERT_TRUE(set.RecoverReplica(0, 2.0).ok());  // Recover alive: no-op.
  EXPECT_TRUE(set.HasMaster(2.0));
  EXPECT_FALSE(set.FailReplica(9, 0.0).ok());
  EXPECT_FALSE(set.RecoverReplica(-1, 0.0).ok());
}

TEST(AgentMonitorTest, DelaysMatchFig11bScale) {
  GeoTopologyOptions gopt;
  gopt.num_dcs = 10;
  gopt.servers_per_dc = 1;
  gopt.min_latency = 0.005;
  gopt.max_latency = 0.050;
  auto topo = BuildGeoTopology(gopt);
  ASSERT_TRUE(topo.ok());
  AgentMonitor monitor(&*topo, /*controller_dc=*/0);
  for (int i = 0; i < 5000; ++i) {
    DcId dc = static_cast<DcId>(i % 10);
    monitor.SampleStatusDelay(dc);
  }
  const EmpiricalDistribution& d = monitor.one_way_delays();
  ASSERT_EQ(d.count(), 5000);
  // Fig 11b: 90% below 50 ms, mean around 25 ms.
  EXPECT_GT(d.CdfAt(0.050), 0.80);
  EXPECT_GT(d.Mean(), 0.005);
  EXPECT_LT(d.Mean(), 0.060);
}

TEST(AgentMonitorTest, FeedbackLoopDominatedByWorstAgent) {
  auto topo = BuildFullMesh(3, 1, 1.0, 1.0, 1.0).value();
  topo.SetDcLatency(0, 1, 0.010);
  topo.SetDcLatency(0, 2, 0.100);  // Distant DC dominates.
  AgentMonitor monitor(&topo, 0);
  double loop = monitor.SampleFeedbackLoop({1, 2}, /*algorithm_seconds=*/0.05);
  EXPECT_GT(loop, 0.05 + 2 * 0.05);  // At least algo + ~2x distant one-way.
  EXPECT_EQ(monitor.feedback_delays().count(), 1);
  EXPECT_GT(monitor.messages_sent(), 0);
}

TEST(NetworkMonitorTest, NoModelMeansZeroRates) {
  auto topo = BuildFullMesh(2, 1, 1.0, 1.0, 1.0).value();
  NetworkMonitor monitor(&topo);
  auto rates = monitor.OnlineRates(100.0);
  ASSERT_EQ(static_cast<int>(rates.size()), topo.num_links());
  for (Rate r : rates) {
    EXPECT_DOUBLE_EQ(r, 0.0);
  }
}

TEST(NetworkMonitorTest, ModelRatesPropagated) {
  auto topo = BuildFullMesh(2, 1, Gbps(10.0), MBps(20.0), MBps(20.0)).value();
  BackgroundTrafficModel model(&topo);
  NetworkMonitor monitor(&topo);
  monitor.SetTrafficModel(&model);
  auto rates = monitor.OnlineRates(3600.0);
  bool any_positive = false;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (topo.link(l).type == LinkType::kWan && rates[static_cast<size_t>(l)] > 0.0) {
      any_positive = true;
    }
  }
  EXPECT_TRUE(any_positive);
}

}  // namespace
}  // namespace bds
