#include <gtest/gtest.h>

#include "src/baselines/akamai.h"
#include "src/baselines/chain.h"
#include "src/baselines/gingko.h"
#include "src/baselines/ideal.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

struct Fixture {
  Topology topo;
  WanRoutingTable routing;
  MulticastJob job;

  Fixture(int dcs = 4, int servers = 3, Bytes size = MB(60.0))
      : topo(BuildFullMesh(dcs, servers, Gbps(1.0), MBps(20.0), MBps(20.0)).value()),
        routing(WanRoutingTable::Build(topo, 3).value()) {
    std::vector<DcId> dests;
    for (DcId d = 1; d < dcs; ++d) {
      dests.push_back(d);
    }
    job = MakeJob(0, 0, dests, size, MB(2.0)).value();
  }
};

void ExpectValidResult(const Fixture& f, const MulticastRunResult& r) {
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.completion_time, 0.0);
  EXPECT_GT(r.deliveries, 0);
  // Every destination server reported a completion time.
  EXPECT_EQ(r.server_completion.size(),
            f.job.dest_dcs.size() * f.topo.ServersIn(f.job.dest_dcs[0]).size());
  EXPECT_EQ(r.dc_completion.size(), f.job.dest_dcs.size());
  SimTime ideal = IdealCompletionBound(f.topo, f.job);
  EXPECT_GE(r.completion_time, ideal * 0.999);
  for (const auto& [server, t] : r.server_completion) {
    EXPECT_LE(t, r.completion_time + 1e-9);
  }
}

TEST(GingkoStrategyTest, CompletesAndRespectsIdeal) {
  Fixture f;
  GingkoStrategy s;
  auto r = s.Run(f.topo, f.routing, f.job, 1, kTimeInfinity);
  ASSERT_TRUE(r.ok());
  ExpectValidResult(f, *r);
  EXPECT_EQ(s.name(), "gingko");
}

TEST(BulletStrategyTest, CompletesAndRespectsIdeal) {
  Fixture f;
  BulletStrategy s;
  auto r = s.Run(f.topo, f.routing, f.job, 1, kTimeInfinity);
  ASSERT_TRUE(r.ok());
  ExpectValidResult(f, *r);
  EXPECT_EQ(s.name(), "bullet");
}

TEST(DirectStrategyTest, CompletesAndRespectsIdeal) {
  Fixture f;
  DirectStrategy s;
  auto r = s.Run(f.topo, f.routing, f.job, 1, kTimeInfinity);
  ASSERT_TRUE(r.ok());
  ExpectValidResult(f, *r);
}

TEST(AkamaiStrategyTest, CompletesAndRespectsIdeal) {
  Fixture f;
  AkamaiStrategy s;
  auto r = s.Run(f.topo, f.routing, f.job, 1, kTimeInfinity);
  ASSERT_TRUE(r.ok());
  ExpectValidResult(f, *r);
}

TEST(ChainStrategyTest, CompletesAndRespectsIdeal) {
  Fixture f;
  ChainStrategy s;
  auto r = s.Run(f.topo, f.routing, f.job, 1, kTimeInfinity);
  ASSERT_TRUE(r.ok());
  ExpectValidResult(f, *r);
}

TEST(StrategyTest, DeadlineTruncates) {
  Fixture f(4, 3, GB(5.0));  // Too large to finish quickly.
  GingkoStrategy s;
  auto r = s.Run(f.topo, f.routing, f.job, 1, /*deadline=*/5.0);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->completed);
  EXPECT_LE(r->completion_time, 5.0 + 1e-6);
}

TEST(StrategyTest, RejectsInvalidJob) {
  Fixture f;
  MulticastJob bad = f.job;
  bad.dest_dcs = {99};
  GingkoStrategy s;
  EXPECT_FALSE(s.Run(f.topo, f.routing, bad, 1, kTimeInfinity).ok());
}

TEST(StrategyTest, Figure3ChainBeatsDirect) {
  // The paper's §2.2 example: direct replication 18 s, chain 13 s.
  Figure3Topology fig = BuildFigure3Example();
  auto routing = WanRoutingTable::Build(fig.topo, 3).value();
  MulticastJob job = MakeJob(0, fig.dc_a, {fig.dc_b, fig.dc_c}, GB(36.0), GB(6.0)).value();

  DirectStrategy direct;
  auto rd = direct.Run(fig.topo, routing, job, 1, kTimeInfinity);
  ASSERT_TRUE(rd.ok());
  ASSERT_TRUE(rd->completed);

  ChainStrategy chain;
  auto rc = chain.Run(fig.topo, routing, job, 1, kTimeInfinity);
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rc->completed);

  EXPECT_LT(rc->completion_time, rd->completion_time);
  // Direct: 36 GB over the 2 GB/s A->C IP route = 18 s.
  EXPECT_NEAR(rd->completion_time, 18.0, 0.5);
  // Chain: ~13 s in the paper's block-pipelined accounting.
  EXPECT_NEAR(rc->completion_time, 13.0, 1.5);
}

TEST(StrategyTest, GingkoSlowerWithLessVisibility) {
  Fixture f(4, 8, MB(160.0));
  // GingkoStrategy's overlay (gingko.cc) with the visibility varied.
  DecentralizedEngine::Options narrow;
  narrow.concurrent_downloads = 1;
  narrow.sticky_blocks = 24;
  narrow.neighbor_fraction = 0.125;
  narrow.upload_slots = 1;
  narrow.visibility = 1;
  DecentralizedEngine::Options wide = narrow;
  wide.visibility = 0;  // Full visibility.
  double narrow_total = 0.0;
  double wide_total = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    narrow.seed = wide.seed = seed;
    auto rn = RunDecentralized(f.topo, f.routing, f.job, narrow, kTimeInfinity);
    auto rw = RunDecentralized(f.topo, f.routing, f.job, wide, kTimeInfinity);
    ASSERT_TRUE(rn.ok() && rw.ok());
    narrow_total += rn->completion_time;
    wide_total += rw->completion_time;
  }
  EXPECT_GE(narrow_total, wide_total * 0.95);
}

TEST(IdealBoundTest, SourceEgressBound) {
  // 1 source server at 10 MB/s; 100 MB must leave at least once -> >= 10 s.
  Topology topo = BuildFullMesh(3, 1, Gbps(10.0), MBps(10.0), MBps(100.0)).value();
  MulticastJob job = MakeJob(0, 0, {1, 2}, MB(100.0), MB(2.0)).value();
  EXPECT_GE(IdealCompletionBound(topo, job), 10.0 - 1e-9);
}

TEST(IdealBoundTest, DestinationIngestBound) {
  // Dest servers at 5 MB/s each (2 per DC): 100 MB / 10 MB/s = 10 s.
  Topology topo = BuildFullMesh(2, 2, Gbps(10.0), MBps(100.0), MBps(5.0)).value();
  MulticastJob job = MakeJob(0, 0, {1}, MB(100.0), MB(2.0)).value();
  EXPECT_GE(IdealCompletionBound(topo, job), 10.0 - 1e-9);
}

TEST(IdealBoundTest, WanIngressBound) {
  // WAN into the destination is 1 MB/s: 100 MB -> >= 50 s with two ingress
  // links (one from each other DC).
  Topology topo = BuildFullMesh(3, 4, MBps(1.0), MBps(100.0), MBps(100.0)).value();
  MulticastJob job = MakeJob(0, 0, {1}, MB(100.0), MB(2.0)).value();
  EXPECT_GE(IdealCompletionBound(topo, job), 50.0 - 1e-9);
}

TEST(AppendixTest, BalancedBeatsImbalanced) {
  // The appendix theorem: t_A < t_B whenever k1 < k < k2, (k1+k2)/2 = k.
  const int64_t n = 100;
  const double rho = MB(2.0);
  const double r = MBps(20.0);
  for (int m = 3; m <= 12; ++m) {
    for (int k = 2; k < m; ++k) {
      for (int k1 = 1; k1 < k; ++k1) {
        int k2 = 2 * k - k1;
        if (k2 <= k1 || k2 >= m) {
          continue;
        }
        double ta = AppendixBalancedTime(n, m, k, rho, r);
        double tb = AppendixImbalancedTime(n, m, k1, k2, rho, r);
        EXPECT_LT(ta, tb) << "m=" << m << " k=" << k << " k1=" << k1;
      }
    }
  }
}

TEST(AppendixTest, BalancedTimeDecreasesWithK) {
  const int64_t n = 100;
  const double rho = MB(2.0);
  const double r = MBps(20.0);
  const int m = 10;
  double prev = AppendixBalancedTime(n, m, 1, rho, r);
  for (int k = 2; k < m; ++k) {
    double t = AppendixBalancedTime(n, m, k, rho, r);
    EXPECT_LT(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace bds
