#include "src/baselines/decentralized_engine.h"

#include <gtest/gtest.h>

#include "src/topology/builders.h"

namespace bds {
namespace {

struct Fixture {
  Topology topo;
  WanRoutingTable routing;

  explicit Fixture(int dcs = 3, int servers = 4)
      : topo(BuildFullMesh(dcs, servers, Gbps(1.0), MBps(20.0), MBps(20.0)).value()),
        routing(WanRoutingTable::Build(topo, 3).value()) {}

  MulticastJob Job(Bytes size = MB(40.0)) {
    std::vector<DcId> dests;
    for (DcId d = 1; d < topo.num_dcs(); ++d) {
      dests.push_back(d);
    }
    return MakeJob(0, 0, dests, size, MB(2.0)).value();
  }
};

// Runs the engine to completion with ticks; returns completion time or -1.
double RunEngine(Fixture& f, const MulticastJob& job, DecentralizedEngine::Options options,
                 SimTime deadline = 3600.0) {
  NetworkSimulator sim(&f.topo);
  ReplicaState state(&f.topo);
  BDS_CHECK(state.AddJob(job).ok());
  DecentralizedEngine engine(&f.topo, &f.routing, &sim, &state, options);
  sim.SetCompletionCallback([&](const FlowRecord& r) { engine.OnFlowComplete(r); });
  engine.Activate();
  while (!state.AllComplete() && sim.now() < deadline) {
    BDS_CHECK(sim.RunUntilIdle(sim.now() + 1.0).ok());
    if (!state.AllComplete() && sim.now() < deadline) {
      BDS_CHECK(sim.AdvanceTo(sim.now() + 1.0).ok());
    }
    engine.Tick();
  }
  return state.AllComplete() ? sim.now() : -1.0;
}

TEST(DecentralizedEngineTest, CompletesWithGlobalView) {
  Fixture f;
  DecentralizedEngine::Options opt;
  opt.visibility = 0;
  EXPECT_GT(RunEngine(f, f.Job(), opt), 0.0);
}

TEST(DecentralizedEngineTest, CompletesWithPartialVisibility) {
  Fixture f;
  DecentralizedEngine::Options opt;
  opt.visibility = 2;
  EXPECT_GT(RunEngine(f, f.Job(), opt), 0.0);
}

TEST(DecentralizedEngineTest, CompletesWithStickySources) {
  Fixture f;
  DecentralizedEngine::Options opt;
  opt.sticky_blocks = 16;
  EXPECT_GT(RunEngine(f, f.Job(), opt), 0.0);
}

TEST(DecentralizedEngineTest, CompletesWithNeighborSetsViaEscalation) {
  Fixture f;
  DecentralizedEngine::Options opt;
  opt.neighbor_fraction = 0.25;  // Tight view: escalation must rescue blocks.
  opt.stall_escalation = 3;
  double t = RunEngine(f, f.Job(), opt);
  EXPECT_GT(t, 0.0);
}

TEST(DecentralizedEngineTest, CompletesWithUploadSlots) {
  Fixture f;
  DecentralizedEngine::Options opt;
  opt.upload_slots = 1;
  EXPECT_GT(RunEngine(f, f.Job(), opt), 0.0);
}

TEST(DecentralizedEngineTest, EpochResamplingRuns) {
  Fixture f;
  DecentralizedEngine::Options opt;
  opt.neighbor_fraction = 0.5;
  opt.resample_period = 2.0;  // RanSub-style refresh.
  opt.concurrent_downloads = 2;
  EXPECT_GT(RunEngine(f, f.Job(), opt), 0.0);
}

TEST(DecentralizedEngineTest, OriginOnlyNeverUsesRelays) {
  Fixture f;
  NetworkSimulator sim(&f.topo);
  ReplicaState state(&f.topo);
  MulticastJob job = f.Job();
  ASSERT_TRUE(state.AddJob(job).ok());
  DecentralizedEngine::Options opt;
  opt.origin_only = true;
  opt.visibility = 0;
  opt.randomize_order = false;
  DecentralizedEngine engine(&f.topo, &f.routing, &sim, &state, opt);
  bool all_from_origin = true;
  engine.SetDeliveryCallback([&](JobId, int64_t, ServerId src, ServerId) {
    if (f.topo.server(src).dc != job.source_dc) {
      all_from_origin = false;
    }
  });
  sim.SetCompletionCallback([&](const FlowRecord& r) { engine.OnFlowComplete(r); });
  engine.Activate();
  ASSERT_TRUE(sim.RunUntilIdle(3600.0).ok());
  EXPECT_TRUE(state.AllComplete());
  EXPECT_TRUE(all_from_origin);
}

TEST(DecentralizedEngineTest, DeactivateStopsNewDownloads) {
  Fixture f;
  NetworkSimulator sim(&f.topo);
  ReplicaState state(&f.topo);
  ASSERT_TRUE(state.AddJob(f.Job()).ok());
  DecentralizedEngine engine(&f.topo, &f.routing, &sim, &state, {});
  sim.SetCompletionCallback([&](const FlowRecord& r) { engine.OnFlowComplete(r); });
  engine.Activate();
  int64_t started_before = engine.downloads_started();
  ASSERT_GT(started_before, 0);
  engine.Deactivate();
  ASSERT_TRUE(sim.RunUntilIdle(3600.0).ok());  // Drain in-flight only.
  EXPECT_EQ(engine.downloads_started(), started_before);
  EXPECT_FALSE(state.AllComplete());
}

TEST(DecentralizedEngineTest, HandleServerFailureRequeuesBlocks) {
  Fixture f;
  NetworkSimulator sim(&f.topo);
  ReplicaState state(&f.topo);
  ASSERT_TRUE(state.AddJob(f.Job()).ok());
  DecentralizedEngine engine(&f.topo, &f.routing, &sim, &state, {});
  sim.SetCompletionCallback([&](const FlowRecord& r) { engine.OnFlowComplete(r); });
  engine.Activate();
  ASSERT_TRUE(sim.AdvanceTo(0.05).ok());
  // Fail one origin server mid-transfer.
  ServerId victim = f.topo.ServersIn(0)[0];
  state.RemoveServer(victim);
  engine.HandleServerFailure(victim);
  // Everything else must still complete (other holders/origins remain).
  for (int i = 0; i < 600 && !state.AllComplete(); ++i) {
    ASSERT_TRUE(sim.RunUntilIdle(sim.now() + 1.0).ok());
    if (!state.AllComplete()) {
      ASSERT_TRUE(sim.AdvanceTo(sim.now() + 1.0).ok());
    }
    engine.Tick();
  }
  // Blocks whose only holder died stay pending; no crash and no wedge spin.
  EXPECT_GE(engine.downloads_started(), 1);
}

}  // namespace
}  // namespace bds
