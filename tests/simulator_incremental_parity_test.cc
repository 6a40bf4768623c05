// Parity suite for the simulator's incremental hot path.
//
// The incremental event loop (dirty-component reallocation, lazy flow
// anchors, completion heap) must be *bit identical* to full reallocation:
// both modes call the same component solver on the same canonically-ordered
// flow subsets, and a clean component re-solved from scratch reproduces the
// same rates, so skipping it cannot change a single bit. These tests drive
// both modes through identical scripted op sequences — flow starts, cancels,
// link-fault factor changes, background-rate changes — and require
// bitwise-equal completion records, per-link bulk rates, violation metrics,
// and clocks, plus fingerprint-equal controller runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/control/controller.h"
#include "src/core/options.h"
#include "src/simulator/network_simulator.h"
#include "src/topology/builders.h"
#include "src/topology/path.h"
#include "src/topology/routing.h"
#include "src/workload/job.h"

namespace bds {
namespace {

class Xorshift {
 public:
  explicit Xorshift(uint64_t seed) : s_(seed * 2654435769u + 1) {}
  uint64_t Next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }
  uint64_t Next(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t s_;
};

// Runs the same seeded op script against an incremental and a
// full-reallocation simulator in lockstep, comparing observable state
// bitwise after every step.
class IncrementalParityTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalParityTest, ScriptedRunMatchesFullReallocationBitwise) {
  Xorshift rng(static_cast<uint64_t>(GetParam()));
  Topology topo = BuildFullMesh(4, 2, MBps(100.0), MBps(40.0), MBps(40.0)).value();
  WanRoutingTable routing = WanRoutingTable::Build(topo, 2).value();

  NetworkSimulator inc(&topo);
  NetworkSimulator ref(&topo);
  ref.set_full_reallocation(true);
  ASSERT_FALSE(inc.full_reallocation());
  ASSERT_TRUE(ref.full_reallocation());
  std::vector<FlowRecord> ra;
  std::vector<FlowRecord> rb;
  inc.SetCompletionCallback([&](const FlowRecord& r) { ra.push_back(r); });
  ref.SetCompletionCallback([&](const FlowRecord& r) { rb.push_back(r); });

  auto compare_links = [&](const char* where) {
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      ASSERT_EQ(inc.LinkBulkRate(l), ref.LinkBulkRate(l)) << where << " link " << l;
    }
    ASSERT_EQ(inc.MaxCapacityViolation(), ref.MaxCapacityViolation()) << where;
  };

  std::vector<FlowId> started;
  SimTime t = 0.0;
  const int kOps = 120;
  for (int op = 0; op < kOps; ++op) {
    switch (rng.Next(7)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Start a flow between random servers in distinct DCs.
        DcId src_dc = static_cast<DcId>(rng.Next(4));
        DcId dst_dc = static_cast<DcId>((src_dc + 1 + rng.Next(3)) % 4);
        ServerId src = topo.ServersIn(src_dc)[rng.Next(2)];
        ServerId dst = topo.ServersIn(dst_dc)[rng.Next(2)];
        auto path = MakeServerPath(topo, routing, src, dst);
        ASSERT_TRUE(path.ok());
        Bytes bytes = MB(1.0 + static_cast<double>(rng.Next(64)));
        Rate pinned =
            rng.Next(4) == 0 ? MBps(1.0 + static_cast<double>(rng.Next(20))) : 0.0;
        auto a = inc.StartFlow(path->links, bytes, pinned);
        auto b = ref.StartFlow(path->links, bytes, pinned);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_EQ(*a, *b);  // Same id stream in both modes.
        started.push_back(*a);
        break;
      }
      case 4: {  // Cancel a (possibly already finished) flow.
        if (started.empty()) {
          break;
        }
        FlowId id = started[rng.Next(started.size())];
        auto a = inc.CancelFlow(id);
        auto b = ref.CancelFlow(id);
        ASSERT_EQ(a.ok(), b.ok());
        if (a.ok()) {
          ASSERT_EQ(*a, *b);  // Delivered bytes match bitwise.
        }
        break;
      }
      case 5: {  // Degrade / restore a random link.
        LinkId l = static_cast<LinkId>(rng.Next(static_cast<uint64_t>(topo.num_links())));
        static const double kFactors[] = {0.0, 0.25, 0.5, 1.0};
        double factor = kFactors[rng.Next(4)];
        ASSERT_TRUE(inc.SetLinkFaultFactor(l, factor).ok());
        ASSERT_TRUE(ref.SetLinkFaultFactor(l, factor).ok());
        break;
      }
      case 6: {  // Background (latency-sensitive) load on a random link.
        LinkId l = static_cast<LinkId>(rng.Next(static_cast<uint64_t>(topo.num_links())));
        Rate bg = topo.link(l).capacity * 0.1 * static_cast<double>(rng.Next(8));
        ASSERT_TRUE(inc.SetBackgroundRate(l, bg).ok());
        ASSERT_TRUE(ref.SetBackgroundRate(l, bg).ok());
        break;
      }
    }
    t += static_cast<double>(rng.Next(1000)) / 250.0;
    ASSERT_TRUE(inc.AdvanceTo(t).ok());
    ASSERT_TRUE(ref.AdvanceTo(t).ok());
    ASSERT_EQ(inc.now(), ref.now());
    ASSERT_EQ(inc.num_active_flows(), ref.num_active_flows());
    ASSERT_EQ(ra.size(), rb.size());
    if (op % 10 == 9) {
      compare_links("mid-run");
    }
  }

  // Heal everything so the drain cannot stall on a dead link, then run both
  // to completion.
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    ASSERT_TRUE(inc.SetLinkFaultFactor(l, 1.0).ok());
    ASSERT_TRUE(ref.SetLinkFaultFactor(l, 1.0).ok());
    ASSERT_TRUE(inc.SetBackgroundRate(l, 0.0).ok());
    ASSERT_TRUE(ref.SetBackgroundRate(l, 0.0).ok());
  }
  auto end_inc = inc.RunUntilIdle();
  auto end_ref = ref.RunUntilIdle();
  ASSERT_TRUE(end_inc.ok());
  ASSERT_TRUE(end_ref.ok());
  ASSERT_EQ(*end_inc, *end_ref);
  compare_links("final");

  // Completion records must agree field-for-field, bit-for-bit, in order.
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, rb[i].id);
    EXPECT_EQ(ra[i].bytes, rb[i].bytes);
    EXPECT_EQ(ra[i].start_time, rb[i].start_time);
    EXPECT_EQ(ra[i].end_time, rb[i].end_time);
    EXPECT_EQ(ra[i].tag, rb[i].tag);
    EXPECT_EQ(ra[i].tag2, rb[i].tag2);
  }

  // The incremental run must not have done more component solves than the
  // reference (it skips clean components; the reference never does).
  EXPECT_LE(inc.num_reallocations(), ref.num_reallocations());
  EXPECT_EQ(inc.num_completion_events(), ref.num_completion_events());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalParityTest, ::testing::Range(1, 41));

TEST(IncrementalSimulatorTest, SimultaneousCompletionsBatchIntoOneEvent) {
  // Four identical flows on disjoint ring paths finish at the same bitwise
  // instant; the event loop must retire them in a single completion event
  // with a single reallocation round, not four micro-events.
  Topology topo = BuildFullMesh(4, 2, MBps(50.0), MBps(50.0), MBps(50.0)).value();
  WanRoutingTable routing = WanRoutingTable::Build(topo, 2).value();
  NetworkSimulator sim(&topo);
  std::vector<FlowRecord> done;
  sim.SetCompletionCallback([&](const FlowRecord& r) { done.push_back(r); });
  for (int i = 0; i < 4; ++i) {
    ServerId src = topo.ServersIn(i)[0];
    ServerId dst = topo.ServersIn((i + 1) % 4)[1];
    auto path = MakeServerPath(topo, routing, src, dst).value();
    ASSERT_TRUE(sim.StartFlow(path.links, MB(100.0)).ok());
  }
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  ASSERT_EQ(done.size(), 4u);
  for (const FlowRecord& r : done) {
    EXPECT_EQ(r.end_time, done[0].end_time);
  }
  EXPECT_EQ(sim.num_completion_events(), 1);
  // One solve per disjoint component at start; completions empty the links.
  EXPECT_EQ(sim.num_reallocations(), 4);
}

TEST(IncrementalSimulatorTest, UntouchedComponentsAreNotResolved) {
  // Two disjoint components; when the short flow finishes, the long flow's
  // component is untouched and must not be re-solved.
  Topology topo = BuildFullMesh(4, 2, MBps(50.0), MBps(50.0), MBps(50.0)).value();
  WanRoutingTable routing = WanRoutingTable::Build(topo, 2).value();
  NetworkSimulator sim(&topo);
  auto short_path =
      MakeServerPath(topo, routing, topo.ServersIn(0)[0], topo.ServersIn(1)[0]).value();
  auto long_path =
      MakeServerPath(topo, routing, topo.ServersIn(2)[0], topo.ServersIn(3)[0]).value();
  ASSERT_TRUE(sim.StartFlow(short_path.links, MB(50.0)).ok());   // 1 s.
  ASSERT_TRUE(sim.StartFlow(long_path.links, MB(500.0)).ok());   // 10 s.
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  EXPECT_NEAR(*end, 10.0, 1e-6);
  EXPECT_EQ(sim.num_completion_events(), 2);
  // Two solves at t=0; the short completion dirties only drained links, so
  // no further component is ever re-solved.
  EXPECT_EQ(sim.num_reallocations(), 2);
}

TEST(IncrementalParityTest2, ControllerFingerprintMatchesFullReallocation) {
  // End-to-end: a full controller run (cycles, LP, cancel-and-credit churn)
  // over the incremental simulator produces the exact fingerprint of the
  // full-reallocation reference.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    uint64_t fp[2] = {0, 1};
    for (int mode = 0; mode < 2; ++mode) {
      Topology topo = BuildFullMesh(3, 2, Gbps(1.0), MBps(20.0), MBps(20.0)).value();
      WanRoutingTable routing = WanRoutingTable::Build(topo, 3).value();
      BdsOptions base;
      base.cycle_length = 1.0;
      ControllerOptions options = ToControllerOptions(base);
      options.seed = seed;
      options.validate_invariants = true;
      options.restall_cycles = 3.0;  // Force some cancel-and-credit churn.
      BdsController controller(&topo, &routing, options);
      controller.mutable_simulator()->set_full_reallocation(mode == 1);
      ASSERT_TRUE(controller
                      .SubmitJob(MakeJob(0, 0, {1, 2},
                                         MB(40.0 + 8.0 * static_cast<double>(seed)),
                                         MB(4.0))
                                     .value())
                      .ok());
      ASSERT_TRUE(
          controller.SubmitJob(MakeJob(1, 1, {0, 2}, MB(24.0), MB(4.0), 5.0).value())
              .ok());
      auto report = controller.Run(Hours(1.0));
      ASSERT_TRUE(report.ok());
      ASSERT_TRUE(report->completed);
      ASSERT_TRUE(report->max_link_overshoot.has_value());
      EXPECT_LE(*report->max_link_overshoot, 1e-4);
      fp[mode] = report->Fingerprint();
    }
    EXPECT_EQ(fp[0], fp[1]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bds
