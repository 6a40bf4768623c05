#include "src/core/service.h"

#include <gtest/gtest.h>

#include "src/baselines/gingko.h"
#include "src/baselines/ideal.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

std::unique_ptr<BdsService> MakeService(int dcs = 3, int servers = 2,
                                        BdsOptions options = BdsOptions{}) {
  Topology topo = BuildFullMesh(dcs, servers, Gbps(1.0), MBps(20.0), MBps(20.0)).value();
  auto service = BdsService::Create(std::move(topo), options);
  BDS_CHECK(service.ok());
  return std::move(service).value();
}

TEST(BdsServiceTest, CreateRejectsBadConfig) {
  Topology one_dc;
  one_dc.AddDatacenter("a");
  EXPECT_FALSE(BdsService::Create(std::move(one_dc), BdsOptions{}).ok());

  Topology topo = BuildFullMesh(2, 1, 1.0, 1.0, 1.0).value();
  BdsOptions bad;
  bad.controller_dc = 9;
  EXPECT_FALSE(BdsService::Create(std::move(topo), bad).ok());

  Topology topo2 = BuildFullMesh(2, 1, 1.0, 1.0, 1.0).value();
  bad = BdsOptions{};
  bad.block_size = 0.0;
  EXPECT_FALSE(BdsService::Create(std::move(topo2), bad).ok());
}

TEST(BdsServiceTest, SingleJobRunsToCompletion) {
  auto service = MakeService();
  ASSERT_TRUE(service->CreateJob(0, {1, 2}, MB(40.0)).ok());
  auto report = service->Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_GT(report->completion_time, 0.0);
  EXPECT_GT(report->deliveries, 0);
  EXPECT_FALSE(report->cycles.empty());
  EXPECT_EQ(report->job_completion.size(), 1u);
  // 2 dest DCs x 2 servers = 4 destination servers.
  EXPECT_EQ(report->server_completion.size(), 4u);
  EXPECT_EQ(report->dc_completion.size(), 2u);
}

TEST(BdsServiceTest, CompletionRespectsIdealBound) {
  auto service = MakeService();
  MulticastJob job = MakeJob(0, 0, {1, 2}, MB(40.0), MB(2.0)).value();
  ASSERT_TRUE(service->SubmitJob(job).ok());
  auto report = service->Run();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);
  SimTime ideal = IdealCompletionBound(service->topology(), job);
  EXPECT_GE(report->completion_time, ideal * 0.999);
  // BDS should be within a small factor of the bound on this easy topology.
  EXPECT_LE(report->completion_time, ideal * 6.0);
}

TEST(BdsServiceTest, CreateJobValidatesArguments) {
  auto service = MakeService();
  EXPECT_FALSE(service->CreateJob(0, {0}, MB(1.0)).ok());   // dest == source
  EXPECT_FALSE(service->CreateJob(0, {}, MB(1.0)).ok());    // no dests
  EXPECT_FALSE(service->CreateJob(0, {1}, -1.0).ok());      // bad size
}

TEST(BdsServiceTest, MultipleJobsAllComplete) {
  auto service = MakeService(4, 2);
  ASSERT_TRUE(service->CreateJob(0, {1, 2}, MB(20.0)).ok());
  ASSERT_TRUE(service->CreateJob(1, {2, 3}, MB(12.0)).ok());
  ASSERT_TRUE(service->CreateJob(2, {0}, MB(8.0), /*start_time=*/5.0).ok());
  auto report = service->Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->job_completion.size(), 3u);
  // The delayed job cannot finish before it arrives.
  EXPECT_GE(report->job_completion.at(2), 5.0);
}

TEST(BdsServiceTest, DeadlineTruncatesRun) {
  auto service = MakeService();
  ASSERT_TRUE(service->CreateJob(0, {1, 2}, GB(10.0)).ok());  // Way too big.
  auto report = service->Run(/*deadline=*/10.0);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->completed);
  EXPECT_LE(report->completion_time, 10.0 + 1e-6);
}

TEST(BdsServiceTest, ServerFailureDelaysButDoesNotBlock) {
  auto service = MakeService(3, 3);
  ASSERT_TRUE(service->CreateJob(0, {1, 2}, MB(60.0)).ok());
  // Fail one destination server early; its shard must be re-delivered after
  // it is replaced... in our model the server stays failed, so the blocks it
  // lost revert to pending and are re-sent to it only if it recovers.
  // Fail a *source* server instead: other holders take over.
  ServerId src1 = service->topology().ServersIn(0)[1];
  service->InjectServerFailure(src1, 3.0);
  auto report = service->Run(/*deadline=*/3600.0);
  ASSERT_TRUE(report.ok());
  // Blocks shared onto destination DCs before the failure let the job finish.
  // (Blocks whose only copy died stay pending; the run must still terminate.)
  EXPECT_LE(report->completion_time, 3600.0 + 1.0);
}

TEST(BdsServiceTest, ControllerOutageFallsBackAndRecovers) {
  BdsOptions opt;
  opt.cycle_length = 1.0;
  auto service = MakeService(3, 2, opt);
  // Large enough that work remains when the controller recovers at t=8.
  ASSERT_TRUE(service->CreateJob(0, {1, 2}, MB(800.0)).ok());
  service->InjectControllerOutage(3.0, 8.0);
  auto report = service->Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  // Cycles in the outage window ran decentralized.
  bool saw_down = false;
  bool saw_up_after = false;
  for (const CycleStats& c : report->cycles) {
    if (c.start_time >= 3.0 - 1e-9 && c.start_time < 8.0 - 1e-9) {
      EXPECT_FALSE(c.controller_up);
      saw_down = true;
    }
    if (c.start_time >= 8.0 - 1e-9 && c.controller_up) {
      saw_up_after = true;
    }
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_up_after);
  // Progress happened during the outage (graceful degradation, Fig 12a).
  int64_t delivered_during_outage = 0;
  for (const CycleStats& c : report->cycles) {
    if (!c.controller_up) {
      delivered_during_outage += c.blocks_delivered;
    }
  }
  EXPECT_GT(delivered_during_outage, 0);
}

TEST(BdsServiceTest, MeasuresControlDelays) {
  auto service = MakeService(3, 2);
  ASSERT_TRUE(service->CreateJob(0, {1, 2}, MB(20.0)).ok());
  auto report = service->Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->control_delays.count(), 0);
  EXPECT_GT(report->feedback_delays.count(), 0);
  // Feedback loop includes two one-way hops plus algorithm time.
  EXPECT_GE(report->feedback_delays.Quantile(0.0), report->control_delays.Quantile(0.0));
}

TEST(BdsServiceTest, OriginStatsShowOverlayRelaying) {
  // Many destination DCs: most blocks should arrive from non-origin DCs
  // (Fig 13c's effect).
  auto service = MakeService(6, 2);
  // Long enough for replicas to become overlay sources across many cycles.
  ASSERT_TRUE(service->CreateJob(0, {1, 2, 3, 4, 5}, MB(240.0)).ok());
  auto report = service->Run();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);
  int64_t origin = 0;
  int64_t total = 0;
  for (const auto& [server, s] : report->origin_stats) {
    origin += s.from_origin;
    total += s.total;
  }
  ASSERT_GT(total, 0);
  // With 5 destination DCs, at most ~1/5 of deliveries need the origin.
  EXPECT_LT(static_cast<double>(origin) / static_cast<double>(total), 0.6);
}

TEST(BdsServiceTest, BdsStrategyAdapterMatchesServiceRun) {
  Topology topo = BuildFullMesh(3, 2, Gbps(1.0), MBps(20.0), MBps(20.0)).value();
  auto routing = WanRoutingTable::Build(topo, 3).value();
  MulticastJob job = MakeJob(0, 0, {1, 2}, MB(40.0), MB(2.0)).value();
  BdsStrategy strategy;
  auto result = strategy.Run(topo, routing, job, /*seed=*/1, /*deadline=*/kTimeInfinity);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);
  EXPECT_EQ(result->server_completion.size(), 4u);
  EXPECT_EQ(strategy.name(), "bds");
}

TEST(BdsServiceTest, BdsBeatsGingkoOnFanout) {
  // The headline claim at miniature scale: centralized BDS vs the
  // decentralized baseline on a 5-DC fanout.
  Topology topo = BuildFullMesh(5, 4, Gbps(1.0), MBps(20.0), MBps(20.0)).value();
  auto routing = WanRoutingTable::Build(topo, 3).value();
  // The transfer must be long relative to the cycle length (the paper's
  // multicasts last tens of minutes against a 3 s cycle; same ratio here).
  MulticastJob job = MakeJob(0, 0, {1, 2, 3, 4}, MB(400.0), MB(2.0)).value();

  BdsOptions bopt;
  bopt.cycle_length = 1.0;
  BdsStrategy bds(bopt);
  auto bds_result = bds.Run(topo, routing, job, 1, kTimeInfinity);
  ASSERT_TRUE(bds_result.ok());
  ASSERT_TRUE(bds_result->completed);

  GingkoStrategy gingko;
  auto gingko_result = gingko.Run(topo, routing, job, 1, kTimeInfinity);
  ASSERT_TRUE(gingko_result.ok());
  ASSERT_TRUE(gingko_result->completed);

  EXPECT_LT(bds_result->completion_time, gingko_result->completion_time);
}

}  // namespace
}  // namespace bds
