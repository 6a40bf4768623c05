#include "src/scheduler/controller_algorithm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/scheduler/bandwidth_separator.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

struct Fixture {
  Topology topo;
  WanRoutingTable routing;
  ReplicaState state;
  std::vector<Rate> residual;

  explicit Fixture(int64_t blocks = 8, int servers = 2, int dcs = 3)
      : topo(BuildFullMesh(dcs, servers, Gbps(10.0), MBps(20.0), MBps(20.0)).value()),
        routing(WanRoutingTable::Build(topo, 3).value()),
        state(&topo) {
    std::vector<DcId> dests;
    for (DcId d = 1; d < dcs; ++d) {
      dests.push_back(d);
    }
    MulticastJob job = MakeJob(1, 0, dests, MB(2.0) * static_cast<double>(blocks), MB(2.0)).value();
    BDS_CHECK(state.AddJob(job).ok());
    for (const Link& l : topo.links()) {
      residual.push_back(l.capacity);
    }
  }
};

ControllerAlgorithmOptions DefaultOptions() {
  ControllerAlgorithmOptions opt;
  opt.cycle_length = 3.0;
  return opt;
}

TEST(ControllerAlgorithmTest, SchedulesAndRoutesSomething) {
  Fixture f;
  ControllerAlgorithm algo(&f.topo, &f.routing, DefaultOptions());
  CycleDecision d = algo.Decide(0, f.state, f.residual, {});
  EXPECT_GT(d.scheduled_blocks, 0);
  EXPECT_GT(d.merged_subtasks, 0);
  EXPECT_FALSE(d.transfers.empty());
  EXPECT_GE(d.scheduling_seconds, 0.0);
  EXPECT_GE(d.routing_seconds, 0.0);
}

TEST(ControllerAlgorithmTest, TransfersRespectResidualCapacity) {
  Fixture f;
  ControllerAlgorithm algo(&f.topo, &f.routing, DefaultOptions());
  CycleDecision d = algo.Decide(0, f.state, f.residual, {});
  std::vector<double> load(f.residual.size(), 0.0);
  for (const TransferAssignment& t : d.transfers) {
    EXPECT_GT(t.rate, 0.0);
    EXPECT_GT(t.bytes, 0.0);
    EXPECT_FALSE(t.blocks.empty());
    for (LinkId l : t.path.links) {
      load[static_cast<size_t>(l)] += t.rate;
    }
  }
  for (size_t l = 0; l < load.size(); ++l) {
    EXPECT_LE(load[l], f.residual[l] * (1.0 + 1e-6)) << "link " << l;
  }
}

TEST(ControllerAlgorithmTest, NoDuplicateDeliveriesInOneCycle) {
  Fixture f;
  ControllerAlgorithm algo(&f.topo, &f.routing, DefaultOptions());
  CycleDecision d = algo.Decide(0, f.state, f.residual, {});
  std::set<std::tuple<JobId, int64_t, ServerId>> seen;
  for (const TransferAssignment& t : d.transfers) {
    for (int64_t b : t.blocks) {
      auto key = std::make_tuple(t.job, b, t.dst_server);
      EXPECT_TRUE(seen.insert(key).second) << "duplicate delivery of block " << b;
    }
  }
}

TEST(ControllerAlgorithmTest, InFlightDeliveriesExcluded) {
  Fixture f;
  ControllerAlgorithm algo(&f.topo, &f.routing, DefaultOptions());
  DeliveryKeySet in_flight;
  for (const PendingDelivery& p : f.state.PendingDeliveries()) {
    in_flight.insert(DeliveryKey{p.job, p.block, p.dc});
  }
  CycleDecision d = algo.Decide(0, f.state, f.residual, in_flight);
  EXPECT_EQ(d.scheduled_blocks, 0);
  EXPECT_TRUE(d.transfers.empty());
}

TEST(ControllerAlgorithmTest, RarestFirstPrefersScarceBlocks) {
  Fixture f(/*blocks=*/8);
  // Give block 0 two extra replicas so it is the most duplicated.
  ASSERT_TRUE(f.state.AddReplica(1, 0, f.state.AssignedServer(1, 0, 1)).ok());
  // Force a choice: each destination server's 3 s download budget at
  // 0.5 MB/s (1.35 MB) takes one 2 MB block, so at most 4 of the 15 pending
  // deliveries fit.
  for (DcId dc = 1; dc < 3; ++dc) {
    for (ServerId s : f.topo.ServersIn(dc)) {
      f.residual[static_cast<size_t>(f.topo.server(s).downlink)] = MBps(0.5);
    }
  }
  ControllerAlgorithm algo(&f.topo, &f.routing, DefaultOptions());
  CycleDecision d = algo.Decide(0, f.state, f.residual, {});
  ASSERT_GT(d.scheduled_blocks, 0);
  ASSERT_LE(d.scheduled_blocks, 4);
  for (const TransferAssignment& t : d.transfers) {
    for (int64_t b : t.blocks) {
      // The duplicated block must not be chosen while rarer ones wait.
      EXPECT_NE(b, 0);
    }
  }
}

TEST(ControllerAlgorithmTest, MergingReducesSubtaskCount) {
  Fixture f(/*blocks=*/16, /*servers=*/1);  // One server per DC: heavy merging.
  ControllerAlgorithmOptions merged = DefaultOptions();
  ControllerAlgorithmOptions unmerged = DefaultOptions();
  unmerged.merge_subtasks = false;
  ControllerAlgorithm a1(&f.topo, &f.routing, merged);
  ControllerAlgorithm a2(&f.topo, &f.routing, unmerged);
  CycleDecision d1 = a1.Decide(0, f.state, f.residual, {});
  CycleDecision d2 = a2.Decide(0, f.state, f.residual, {});
  ASSERT_GT(d1.scheduled_blocks, 0);
  EXPECT_EQ(d1.scheduled_blocks, d2.scheduled_blocks);
  EXPECT_LT(d1.merged_subtasks, d2.merged_subtasks);
}

TEST(ControllerAlgorithmTest, ExactLpModeAgreesWithFptasOnThroughput) {
  Fixture f(/*blocks=*/4, /*servers=*/1);
  ControllerAlgorithmOptions fast = DefaultOptions();
  ControllerAlgorithmOptions exact = DefaultOptions();
  exact.use_exact_lp = true;
  ControllerAlgorithm a1(&f.topo, &f.routing, fast);
  ControllerAlgorithm a2(&f.topo, &f.routing, exact);
  auto total_rate = [](const CycleDecision& d) {
    double r = 0.0;
    for (const auto& t : d.transfers) {
      r += t.rate;
    }
    return r;
  };
  CycleDecision d1 = a1.Decide(0, f.state, f.residual, {});
  CycleDecision d2 = a2.Decide(0, f.state, f.residual, {});
  ASSERT_GT(total_rate(d2), 0.0);
  EXPECT_GE(total_rate(d1), total_rate(d2) * 0.7);
  EXPECT_LE(total_rate(d1), total_rate(d2) * 1.000001);
}

TEST(ControllerAlgorithmTest, DownloadBudgetLimitsPerCycleSelection) {
  // 100 blocks but each destination server can only ingest
  // 20 MB/s * 3 s = 60 MB = 30 blocks per cycle.
  Fixture f(/*blocks=*/100, /*servers=*/1, /*dcs=*/2);
  ControllerAlgorithm algo(&f.topo, &f.routing, DefaultOptions());
  CycleDecision d = algo.Decide(0, f.state, f.residual, {});
  EXPECT_LE(d.scheduled_blocks, 30);
  EXPECT_GT(d.scheduled_blocks, 0);
}

TEST(ControllerAlgorithmTest, ZeroResidualMeansNoTransfers) {
  Fixture f;
  std::vector<Rate> zero(f.residual.size(), 0.0);
  ControllerAlgorithm algo(&f.topo, &f.routing, DefaultOptions());
  CycleDecision d = algo.Decide(0, f.state, f.residual, {});
  ASSERT_FALSE(d.transfers.empty());
  CycleDecision dz = algo.Decide(0, f.state, zero, {});
  EXPECT_TRUE(dz.transfers.empty());
}

// A hard-down WAN link reaches routing only as zero residual capacity; the
// route sets stay as built. The next decision must route DC0 -> DC1 over the
// detours and never over the dead link.
TEST(ControllerAlgorithmTest, DeadWanLinkIsRoutedAround) {
  Fixture f;  // 3-DC full mesh, k = 3, one job DC0 -> DC1, DC2.
  ASSERT_GT(f.routing.Routes(0, 1).size(), 1u);
  LinkId dead = kInvalidLink;
  for (const Link& l : f.topo.links()) {
    if (l.type == LinkType::kWan && l.src_dc == 0 && l.dst_dc == 1) {
      dead = l.id;
    }
  }
  ASSERT_NE(dead, kInvalidLink);

  ControllerAlgorithm algo(&f.topo, &f.routing, DefaultOptions());
  CycleDecision healthy = algo.Decide(0, f.state, f.residual, {});
  bool used_dead = false;
  for (const TransferAssignment& t : healthy.transfers) {
    used_dead |= std::count(t.path.links.begin(), t.path.links.end(), dead) > 0;
  }
  ASSERT_TRUE(used_dead);  // Otherwise the fault below changes nothing.

  std::vector<Rate> faulted = f.residual;
  faulted[static_cast<size_t>(dead)] = 0.0;
  CycleDecision d = algo.Decide(1, f.state, faulted, {});
  int to_dc1 = 0;
  for (const TransferAssignment& t : d.transfers) {
    EXPECT_EQ(std::count(t.path.links.begin(), t.path.links.end(), dead), 0);
    if (f.topo.server(t.dst_server).dc == 1) {
      ++to_dc1;
      EXPECT_GT(t.path.wan_route_index, 0);
    }
  }
  EXPECT_GT(to_dc1, 0);
}

// A workload big enough that scheduling hits budget limits and routing has
// multi-path commodities — the regime where thread count could plausibly
// change a decision.
Fixture BigFixture() {
  Fixture f(/*blocks=*/200, /*servers=*/3, /*dcs=*/4);
  // Scatter a few replicas so duplicate counts (and thus rarest-first
  // ordering) are non-uniform.
  for (int64_t b = 0; b < 40; b += 7) {
    BDS_CHECK(f.state.AddReplica(1, b, f.state.AssignedServer(1, b, 1)).ok());
  }
  return f;
}

uint64_t DecideFingerprint(Fixture& f, const ControllerAlgorithmOptions& opt) {
  ControllerAlgorithm algo(&f.topo, &f.routing, opt);
  CycleDecision d = algo.Decide(0, f.state, f.residual, {});
  BDS_CHECK(d.scheduled_blocks > 0);  // A trivial decision proves nothing.
  return d.Fingerprint();
}

TEST(ControllerAlgorithmTest, ThreadCountDoesNotChangeFingerprint) {
  Fixture f = BigFixture();
  ControllerAlgorithmOptions opt = DefaultOptions();
  opt.num_threads = 1;
  uint64_t serial = DecideFingerprint(f, opt);
  for (int threads : {2, 4, 8}) {
    opt.num_threads = threads;
    EXPECT_EQ(DecideFingerprint(f, opt), serial) << threads << " threads";
  }
}

TEST(SplitBlocksAcrossPathsTest, ProportionalWithRemainderToLargest) {
  // 10 blocks over rates 3:1 -> floor gives 7 and 2, remainder to the
  // highest-rate path.
  auto split = SplitBlocksAcrossPaths(10, {3.0, 1.0});
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0] + split[1], 10);
  EXPECT_EQ(split[0], 8);
  EXPECT_EQ(split[1], 2);
}

TEST(SplitBlocksAcrossPathsTest, SinglePathTakesEverything) {
  auto split = SplitBlocksAcrossPaths(5, {2.5});
  ASSERT_EQ(split.size(), 1u);
  EXPECT_EQ(split[0], 5);
}

TEST(SplitBlocksAcrossPathsTest, ZeroRatePathsGetNothing) {
  // The re-crediting fix: blocks a dead path would have received must land on
  // the best path, not vanish.
  auto split = SplitBlocksAcrossPaths(9, {0.0, 4.0, 0.0});
  ASSERT_EQ(split.size(), 3u);
  EXPECT_EQ(split[0], 0);
  EXPECT_EQ(split[1], 9);
  EXPECT_EQ(split[2], 0);
}

TEST(SplitBlocksAcrossPathsTest, AllZeroRatesMeansNoBlocks) {
  auto split = SplitBlocksAcrossPaths(4, {0.0, 0.0});
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0], 0);
  EXPECT_EQ(split[1], 0);
}

TEST(SplitBlocksAcrossPathsTest, ConservesTotalAcrossRandomShapes) {
  // Conservation property: counts always sum to num_blocks whenever any path
  // has meaningful rate, regardless of the rate mix.
  const std::vector<std::vector<double>> rate_sets = {
      {1.0, 1.0, 1.0}, {5.0, 0.25, 0.25}, {1e-12, 2.0}, {0.7, 0.2, 0.1, 0.0}};
  for (const auto& rates : rate_sets) {
    for (int64_t n : {1, 2, 7, 100}) {
      auto split = SplitBlocksAcrossPaths(n, rates);
      int64_t total = 0;
      for (int64_t c : split) {
        EXPECT_GE(c, 0);
        total += c;
      }
      EXPECT_EQ(total, n) << "n=" << n;
    }
  }
}

TEST(BandwidthSeparatorTest, ThresholdAppliedToWanOnly) {
  Topology topo = BuildFullMesh(2, 1, Gbps(10.0), MBps(20.0), MBps(20.0)).value();
  BandwidthSeparator::Options opt;
  opt.safety_threshold = 0.8;
  BandwidthSeparator sep(&topo, opt);
  std::vector<Rate> residual = sep.ResidualCapacities({}, {});
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (topo.link(l).type == LinkType::kWan) {
      EXPECT_DOUBLE_EQ(residual[static_cast<size_t>(l)], Gbps(10.0) * 0.8);
    } else {
      EXPECT_DOUBLE_EQ(residual[static_cast<size_t>(l)], MBps(20.0));
    }
  }
}

TEST(BandwidthSeparatorTest, OnlineTrafficSubtracted) {
  Topology topo = BuildFullMesh(2, 1, Gbps(10.0), MBps(20.0), MBps(20.0)).value();
  BandwidthSeparator sep(&topo);
  LinkId wan = kInvalidLink;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (topo.link(l).type == LinkType::kWan) {
      wan = l;
      break;
    }
  }
  std::vector<Rate> online(static_cast<size_t>(topo.num_links()), 0.0);
  online[static_cast<size_t>(wan)] = Gbps(5.0);
  std::vector<Rate> residual = sep.ResidualCapacities(online, {});
  EXPECT_DOUBLE_EQ(residual[static_cast<size_t>(wan)], Gbps(10.0) * 0.8 - Gbps(5.0));
}

TEST(BandwidthSeparatorTest, OnlineBeyondThresholdMeansZero) {
  Topology topo = BuildFullMesh(2, 1, Gbps(10.0), MBps(20.0), MBps(20.0)).value();
  BandwidthSeparator sep(&topo);
  std::vector<Rate> online(static_cast<size_t>(topo.num_links()), Gbps(9.0));
  std::vector<Rate> residual = sep.ResidualCapacities(online, {});
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (topo.link(l).type == LinkType::kWan) {
      EXPECT_DOUBLE_EQ(residual[static_cast<size_t>(l)], 0.0);
    }
  }
}

TEST(BandwidthSeparatorTest, BulkRateCapApplies) {
  Topology topo = BuildFullMesh(2, 1, GBps(20.0), MBps(20.0), MBps(20.0)).value();
  BandwidthSeparator::Options opt;
  opt.bulk_rate_cap = GBps(10.0);  // Fig 10's 10 GB/s limit.
  BandwidthSeparator sep(&topo, opt);
  std::vector<Rate> residual = sep.ResidualCapacities({}, {});
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (topo.link(l).type == LinkType::kWan) {
      EXPECT_DOUBLE_EQ(residual[static_cast<size_t>(l)], GBps(10.0));
    }
  }
}

}  // namespace
}  // namespace bds
