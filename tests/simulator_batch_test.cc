// SoA hot-path edge cases:
//  * Flow/FlowView::RemainingAt clamps at zero (no negative remaining);
//  * rate_epoch lazy heap invalidation — a starved (zero-rate) flow's stale
//    projected completion must never fire, and simultaneous completions at
//    one timestamp batch into a single event;
//  * the locality reorder (ReorderSlotsForLocality) is unobservable: a bulk
//    load of >= 4096 starts, which reorders the pool in the next
//    reallocation, completes bit-identically to the same flows started in
//    smaller chunks with a reallocation between them, which never reorder.

#include <gtest/gtest.h>

#include <vector>

#include "src/simulator/network_simulator.h"
#include "src/topology/topology.h"
#include "tests/oracles.h"

namespace bds {
namespace {

// `clusters` independent DC pairs, one server each side, own WAN link each:
// disjoint components whose flows only interact within their own cluster.
struct ClusterNet {
  Topology topo;
  std::vector<std::vector<LinkId>> paths;  // One path per cluster.
};

ClusterNet MakeClusters(int clusters, Rate rate = 10e6) {
  ClusterNet n;
  for (int c = 0; c < clusters; ++c) {
    DcId a = n.topo.AddDatacenter("a" + std::to_string(c));
    DcId b = n.topo.AddDatacenter("b" + std::to_string(c));
    ServerId src = n.topo.AddServer(a, rate, rate).value();
    ServerId dst = n.topo.AddServer(b, rate, rate).value();
    LinkId wan = n.topo.AddWanLink(a, b, rate).value();
    n.paths.push_back({n.topo.server(src).uplink, wan, n.topo.server(dst).downlink});
  }
  return n;
}

TEST(RemainingAtTest, FlowClampsAtZero) {
  Flow f;
  f.remaining = 10.0;
  f.anchor_time = 2.0;
  f.current_rate = 5.0;
  EXPECT_DOUBLE_EQ(f.RemainingAt(2.0), 10.0);
  EXPECT_DOUBLE_EQ(f.RemainingAt(3.0), 5.0);
  EXPECT_DOUBLE_EQ(f.RemainingAt(4.0), 0.0);
  // Past the projected completion the clamp must hold — a negative value
  // would corrupt every downstream byte count.
  EXPECT_DOUBLE_EQ(f.RemainingAt(1000.0), 0.0);
}

TEST(RemainingAtTest, FlowViewClampsAtZero) {
  FlowView v;
  v.remaining = 8.0;
  v.anchor_time = 0.0;
  v.current_rate = 2.0;
  EXPECT_DOUBLE_EQ(v.RemainingAt(3.0), 2.0);
  EXPECT_DOUBLE_EQ(v.RemainingAt(4.0), 0.0);
  EXPECT_DOUBLE_EQ(v.RemainingAt(1e9), 0.0);
  // Zero-rate flows hold their remaining forever.
  v.current_rate = 0.0;
  EXPECT_DOUBLE_EQ(v.RemainingAt(1e9), 8.0);
}

// A flow starved to rate zero must not complete off its stale (pre-starve)
// heap entry: the entry's rate_epoch no longer matches the slot's, so the
// pop discards it.
TEST(StaleHeapEntryTest, StarvedFlowDoesNotCompleteOffStaleEntry) {
  ClusterNet net = MakeClusters(1, 10e6);
  NetworkSimulator sim(&net.topo);
  std::vector<FlowRecord> done;
  sim.SetCompletionCallback([&](const FlowRecord& r) { done.push_back(r); });
  FlowId id = sim.StartFlow(net.paths[0], 100e6).value();  // Projected t=10.
  ASSERT_TRUE(sim.AdvanceTo(2.0).ok());                    // 20 MB moved.
  // Background traffic eats the whole WAN: the re-solve drops the flow to
  // rate 0 and bumps its rate_epoch, orphaning the t=10 heap entry.
  ASSERT_TRUE(sim.SetBackgroundRate(net.paths[0][1], 10e6).ok());
  ASSERT_TRUE(sim.AdvanceTo(20.0).ok());  // Far past the stale entry's key.
  EXPECT_EQ(sim.num_active_flows(), 1);
  EXPECT_TRUE(done.empty());
  auto view = sim.FindFlow(id);
  ASSERT_TRUE(view.has_value());
  EXPECT_DOUBLE_EQ(view->current_rate, 0.0);
  EXPECT_DOUBLE_EQ(view->RemainingAt(sim.now()), 80e6);
  // Capacity returns: the remaining 80 MB moves at 10 MB/s from t=20.
  ASSERT_TRUE(sim.SetBackgroundRate(net.paths[0][1], 0.0).ok());
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  EXPECT_NEAR(*end, 28.0, 1e-6);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, id);
}

// Equal flows in disjoint components project identical completion times; the
// heap must drain them as one event batch at one timestamp.
TEST(StaleHeapEntryTest, SimultaneousCompletionsShareOneEvent) {
  ClusterNet net = MakeClusters(4, 10e6);
  NetworkSimulator sim(&net.topo);
  std::vector<FlowRecord> done;
  sim.SetCompletionCallback([&](const FlowRecord& r) { done.push_back(r); });
  std::vector<FlowId> ids;
  for (int c = 0; c < 4; ++c) {
    ids.push_back(sim.StartFlow(net.paths[c], 50e6).value());  // All end t=5.
  }
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  EXPECT_NEAR(*end, 5.0, 1e-6);
  EXPECT_EQ(sim.num_completion_events(), 1);
  ASSERT_EQ(done.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    // Completions within one event fire in ascending id order.
    EXPECT_EQ(done[i].id, ids[i]);
    EXPECT_DOUBLE_EQ(done[i].end_time, done[0].end_time);
  }
}

// Deterministic per-flow byte sizes, varied so completions interleave across
// clusters and each completion re-solves its shrunken component.
Bytes FlowBytes(int i) { return 1e6 * static_cast<double>(1 + (i * 37) % 100); }

// Starts `flows` flows round-robin over the clusters, `chunk` at a time with
// a zero-length time advance (one reallocation) between chunks, then cancels
// every 97th flow when `with_cancels`, drains, and returns the completion
// records. A chunk >= 4096 lands the whole load in one reallocation, which
// reorders the pool first; smaller chunks never reach the threshold.
std::vector<FlowRecord> RunWorkload(const ClusterNet& net, int flows, int chunk,
                                    bool with_cancels) {
  NetworkSimulator sim(&net.topo);
  std::vector<FlowRecord> done;
  sim.SetCompletionCallback([&](const FlowRecord& r) { done.push_back(r); });
  const int clusters = static_cast<int>(net.paths.size());
  std::vector<FlowId> ids;
  for (int i = 0; i < flows; ++i) {
    ids.push_back(sim.StartFlow(net.paths[i % clusters], FlowBytes(i)).value());
    if ((i + 1) % chunk == 0 && i + 1 < flows) {
      EXPECT_TRUE(sim.AdvanceBy(0.0).ok());
    }
  }
  if (with_cancels) {
    // Cancelled flows leave freed slots the reorder must compact away.
    for (int i = 0; i < flows; i += 97) {
      EXPECT_TRUE(sim.CancelFlow(ids[static_cast<size_t>(i)]).ok());
    }
  }
  EXPECT_TRUE(sim.RunUntilIdle().ok());
  return done;
}

void ExpectBitIdentical(const std::vector<FlowRecord>& a, const std::vector<FlowRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    // Bitwise, not approximate: reordering slots must not change a single
    // float operation or its order.
    EXPECT_EQ(a[i].end_time, b[i].end_time);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
}

// A load past the reorder threshold (4096 starts since the last
// reallocation) compacts the pool before its first solve: slots are
// renumbered component-by-component and the incidence rows and id map are
// remapped. Results must stay bit-identical to chunked starts.
TEST(ReorderParityTest, BulkLoadBitIdenticalToChunkedStarts) {
  ClusterNet net = MakeClusters(32);
  ExpectBitIdentical(RunWorkload(net, 5000, /*chunk=*/5000, /*with_cancels=*/false),
                     RunWorkload(net, 5000, /*chunk=*/1000, /*with_cancels=*/false));
}

TEST(ReorderParityTest, BulkLoadWithCancelsBitIdenticalToChunkedStarts) {
  ClusterNet net = MakeClusters(32);
  ExpectBitIdentical(RunWorkload(net, 5000, /*chunk=*/5000, /*with_cancels=*/true),
                     RunWorkload(net, 5000, /*chunk=*/1000, /*with_cancels=*/true));
}

// The reorder also fires mid-run. The load reuses the slots of finished
// flows, out of id order, and touches only half the clusters: the other
// half keep their rates, so their completion-heap entries must follow their
// flows to the new slots.
TEST(ReorderParityTest, MidRunBulkLoadBitIdenticalToChunkedStarts) {
  ClusterNet net = MakeClusters(32);
  auto run = [&](int chunk) {
    NetworkSimulator sim(&net.topo);
    std::vector<FlowRecord> done;
    sim.SetCompletionCallback([&](const FlowRecord& r) { done.push_back(r); });
    for (int i = 0; i < 300; ++i) {
      EXPECT_TRUE(sim.StartFlow(net.paths[static_cast<size_t>(i % 32)], FlowBytes(i)).ok());
    }
    EXPECT_TRUE(sim.AdvanceTo(20.0).ok());
    EXPECT_FALSE(done.empty());  // Some slots are free before the load.
    for (int i = 0; i < 5000; ++i) {
      EXPECT_TRUE(
          sim.StartFlow(net.paths[static_cast<size_t>((i * 7) % 16)], FlowBytes(i + 300)).ok());
      if ((i + 1) % chunk == 0 && i + 1 < 5000) {
        EXPECT_TRUE(sim.AdvanceBy(0.0).ok());
      }
    }
    EXPECT_TRUE(sim.RunUntilIdle().ok());
    return done;
  };
  ExpectBitIdentical(run(/*chunk=*/5000), run(/*chunk=*/1000));
}

}  // namespace
}  // namespace bds
