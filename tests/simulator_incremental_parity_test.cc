// Parity suite for the simulator's incremental hot path.
//
// The incremental event loop (dirty-component reallocation, retained
// re-solves, lazy flow anchors, completion heap) must be *bit identical* to
// ReferenceSimulator (tests/oracles.h), which shares no code with it: it
// keeps Flow objects, re-solves every component after any change with the
// same component solver on the same canonically-ordered flow subsets, and
// scans for the next completion. A clean component re-solved from scratch
// reproduces the same rates, so skipping it cannot change a single bit.
// These tests drive both through identical scripted op sequences — flow
// starts, cancels, link-fault factor changes, background-rate changes — and
// require bitwise-equal completion records, per-link bulk rates, violation
// metrics, and clocks. A second, all-pinned script covers departures that
// skip their re-solve altogether, a bulk-shaped drain (one 2,100-flow
// all-pinned, oversubscribed component) covers them at the scale whole runs
// produce, and pinned fingerprints cover whole controller runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/control/controller.h"
#include "src/core/options.h"
#include "src/simulator/network_simulator.h"
#include "src/telemetry/metrics.h"
#include "src/topology/builders.h"
#include "src/topology/path.h"
#include "src/topology/routing.h"
#include "src/workload/job.h"
#include "tests/oracles.h"

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

// Completion records must agree field-for-field, bit-for-bit, in order.
void ExpectSameRecords(const std::vector<FlowRecord>& a, const std::vector<FlowRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].start_time, b[i].start_time);
    EXPECT_EQ(a[i].end_time, b[i].end_time);
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].tag2, b[i].tag2);
  }
}

// Runs the same seeded op script against the incremental simulator and the
// reference in lockstep, comparing observable state
// bitwise after every step. With `all_pinned` every flow gets a pin of up to
// 60 MB/s, enough to oversubscribe the 40 MB/s NICs, so the incremental run
// mixes departures that skip their re-solve with scaled-down components.
void RunLockstepScript(uint64_t seed, bool all_pinned) {
  Xorshift rng(seed);
  Topology topo = BuildFullMesh(4, 2, MBps(100.0), MBps(40.0), MBps(40.0)).value();
  WanRoutingTable routing = WanRoutingTable::Build(topo, 2).value();

  NetworkSimulator inc(&topo);
  ReferenceSimulator ref(&topo);
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
        Rate pinned = 0.0;
        if (all_pinned) {
          pinned = MBps(1.0 + static_cast<double>(rng.Next(60)));
        } else if (rng.Next(4) == 0) {
          pinned = MBps(1.0 + static_cast<double>(rng.Next(20)));
        }
        auto a = inc.StartFlow(path->links, bytes, pinned);
        auto b = ref.StartFlow(path->links, bytes, pinned);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_EQ(*a, *b);  // Same id stream in both.
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

  ExpectSameRecords(ra, rb);

  // The incremental run must not have done more component solves than the
  // reference (it skips clean components; the reference never does).
  EXPECT_LE(inc.num_reallocations(), ref.num_reallocations());
  EXPECT_EQ(inc.num_completion_events(), ref.num_completion_events());
}

class IncrementalParityTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalParityTest, ScriptedRunMatchesFullReallocationBitwise) {
  RunLockstepScript(static_cast<uint64_t>(GetParam()), /*all_pinned=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalParityTest, ::testing::Range(1, 41));

class AllPinnedParityTest : public ::testing::TestWithParam<int> {};

TEST_P(AllPinnedParityTest, ScriptedRunMatchesFullReallocationBitwise) {
  RunLockstepScript(static_cast<uint64_t>(GetParam()), /*all_pinned=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllPinnedParityTest, ::testing::Range(1, 41));

// What one simulator observes over a bulk-shaped drain: the completion
// records, every link's bulk rate at each wave boundary, the end time, and,
// for NetworkSimulator, the number of departures that skipped their re-solve
// and phase 1's work.
struct BulkDrain {
  std::vector<FlowRecord> records;
  std::vector<Rate> link_rates;
  SimTime end = 0.0;
  int64_t resolves_skipped = 0;
  int64_t pinned_rounds = 0;
  int64_t pinned_resum_terms = 0;
};

// A drain shaped like the bulk_oneshot workload: 20 source servers in DC 0
// send to 21 destination servers (7 in each of DCs 1-3), five flows per
// pair, 2,100 pinned flows in one component. The WAN never binds. Each
// source NIC's pins sum to 1.1-1.3x its 40 MB/s, split unevenly among its
// flows, so phase 1 scales flows at most NICs; staggered sizes then make
// flows leave one at a time, some at their pins next to others that are
// still scaled down. Flows start in three waves 3 s apart, as controller
// cycles launch them, and each later wave first cancels ~2% of the flows.
template <typename Sim>
BulkDrain RunBulkDrain(uint64_t seed) {
  Xorshift rng(seed);
  Topology topo = BuildFullMesh(4, 20, GBps(10.0), MBps(40.0), MBps(40.0)).value();
  WanRoutingTable routing = WanRoutingTable::Build(topo, 1).value();
  std::vector<ServerId> dsts;
  for (DcId dc = 1; dc < 4; ++dc) {
    for (int i = 0; i < 7; ++i) {
      dsts.push_back(topo.ServersIn(dc)[static_cast<size_t>(i)]);
    }
  }
  struct Spec {
    std::vector<LinkId> links;
    Bytes bytes;
    Rate pinned;
  };
  std::vector<Spec> specs;
  for (ServerId src : topo.ServersIn(0)) {
    const size_t first = specs.size();
    double weight_sum = 0.0;
    for (ServerId dst : dsts) {
      std::vector<LinkId> links = MakeServerPath(topo, routing, src, dst).value().links;
      for (int k = 0; k < 5; ++k) {
        const double weight = 1.0 + static_cast<double>(rng.Next(4));
        specs.push_back({links, MB(2.0 + static_cast<double>(rng.Next(40))), weight});
        weight_sum += weight;
      }
    }
    const Rate nic_pins = MBps(40.0) * (1.1 + 0.2 * static_cast<double>(rng.Next(1001)) / 1000.0);
    for (size_t i = first; i < specs.size(); ++i) {
      specs[i].pinned = nic_pins * specs[i].pinned / weight_sum;
    }
  }

  telemetry::SetEnabled(true);
  const telemetry::MetricsSnapshot before = telemetry::MetricsRegistry::Global().Snapshot();
  Sim sim(&topo);
  BulkDrain out;
  sim.SetCompletionCallback([&](const FlowRecord& r) { out.records.push_back(r); });
  std::vector<FlowId> started;
  constexpr int kWaves = 3;
  for (int wave = 0; wave < kWaves; ++wave) {
    EXPECT_TRUE(sim.AdvanceTo(3.0 * wave).ok());
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      out.link_rates.push_back(sim.LinkBulkRate(l));
    }
    for (size_t c = 0; c < started.size() / 50; ++c) {
      (void)sim.CancelFlow(started[rng.Next(started.size())]);  // May be gone.
    }
    for (size_t i = static_cast<size_t>(wave); i < specs.size(); i += kWaves) {
      started.push_back(sim.StartFlow(specs[i].links, specs[i].bytes, specs[i].pinned).value());
    }
  }
  out.end = sim.RunUntilIdle().value();
  const telemetry::MetricsSnapshot diff =
      telemetry::MetricsRegistry::Global().Snapshot().DiffSince(before);
  out.resolves_skipped = diff.CounterValue("sim.resolves_skipped");
  out.pinned_rounds = diff.CounterValue("sim.pinned_rounds");
  out.pinned_resum_terms = diff.CounterValue("sim.pinned_resum_terms");
  telemetry::SetEnabled(false);
  return out;
}

class BulkShapedParityTest : public ::testing::TestWithParam<int> {};

TEST_P(BulkShapedParityTest, PinnedNicBoundDrainMatchesFullReallocationBitwise) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  BulkDrain inc = RunBulkDrain<NetworkSimulator>(seed);
  BulkDrain ref = RunBulkDrain<ReferenceSimulator>(seed);
  ASSERT_GT(inc.records.size(), 2000u);
  EXPECT_EQ(inc.end, ref.end);
  EXPECT_EQ(inc.link_rates, ref.link_rates);
  ExpectSameRecords(inc.records, ref.records);
  // The drain must exercise the at-pin departure skip, not just the re-solves.
  EXPECT_GT(inc.resolves_skipped, 0);
  // Phase 1 scales the oversubscribed NICs, and the counters see it.
  EXPECT_GT(inc.pinned_rounds, 0);
  EXPECT_GT(inc.pinned_resum_terms, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkShapedParityTest, ::testing::Range(1, 11));

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

TEST(IncrementalSimulatorTest, AtPinDepartureFromAllAtPinComponentSkipsResolve) {
  // Two pinned flows share server 0's uplink well under its capacity, so both
  // run at their pins. When the short one finishes, nothing else can change:
  // the component is not re-solved, and the long flow keeps its entry.
  Topology topo = BuildFullMesh(4, 2, MBps(100.0), MBps(40.0), MBps(40.0)).value();
  WanRoutingTable routing = WanRoutingTable::Build(topo, 2).value();
  NetworkSimulator sim(&topo);
  std::vector<FlowRecord> done;
  sim.SetCompletionCallback([&](const FlowRecord& r) { done.push_back(r); });
  ServerId src = topo.ServersIn(0)[0];
  auto p1 = MakeServerPath(topo, routing, src, topo.ServersIn(1)[0]).value();
  auto p2 = MakeServerPath(topo, routing, src, topo.ServersIn(2)[0]).value();
  ASSERT_TRUE(sim.StartFlow(p1.links, MB(10.0), MBps(10.0)).ok());   // 1 s.
  ASSERT_TRUE(sim.StartFlow(p2.links, MB(100.0), MBps(20.0)).ok());  // 5 s.
  ASSERT_TRUE(sim.AdvanceTo(0.5).ok());
  ASSERT_EQ(sim.num_reallocations(), 1);
  ASSERT_TRUE(sim.AdvanceTo(2.0).ok());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(sim.num_reallocations(), 1);
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[1].end_time, 5.0);
  EXPECT_EQ(sim.num_reallocations(), 1);
}

TEST(IncrementalSimulatorTest, DepartureAtPinNextToScaledDownFlowSkips) {
  // Flows 0 and 1 pin 30 MB/s each on server 0's 40 MB/s uplink and are
  // scaled down to 20. Flow 2, at its pin, shares flow 0's WAN link and
  // destination NIC. It was never scaled, so none of its links was ever
  // phase 1's worst link: when it finishes the component is not re-solved,
  // and rates and completions still match the reference bitwise.
  Topology topo = BuildFullMesh(4, 2, MBps(100.0), MBps(40.0), MBps(40.0)).value();
  WanRoutingTable routing = WanRoutingTable::Build(topo, 2).value();
  ServerId dst = topo.ServersIn(1)[0];
  auto p0 = MakeServerPath(topo, routing, topo.ServersIn(0)[0], dst).value();
  auto p1 =
      MakeServerPath(topo, routing, topo.ServersIn(0)[0], topo.ServersIn(2)[0]).value();
  auto p2 = MakeServerPath(topo, routing, topo.ServersIn(0)[1], dst).value();
  NetworkSimulator sim(&topo);
  ReferenceSimulator ref(&topo);
  std::vector<FlowRecord> done;
  std::vector<FlowRecord> ref_done;
  sim.SetCompletionCallback([&](const FlowRecord& r) { done.push_back(r); });
  ref.SetCompletionCallback([&](const FlowRecord& r) { ref_done.push_back(r); });
  FlowId f0 = 0;
  FlowId f1 = 0;
  auto start = [&](auto& s) {
    f0 = s.StartFlow(p0.links, MB(1000.0), MBps(30.0)).value();
    f1 = s.StartFlow(p1.links, MB(1000.0), MBps(30.0)).value();
    ASSERT_TRUE(s.StartFlow(p2.links, MB(5.0), MBps(5.0)).ok());  // 1 s.
    ASSERT_TRUE(s.AdvanceTo(0.5).ok());
  };
  start(sim);
  start(ref);
  ASSERT_EQ(sim.num_reallocations(), 1);
  ASSERT_NEAR(sim.FindFlow(f0)->current_rate, MBps(20.0), 1e-3);
  auto advance = [](auto& s) {
    ASSERT_TRUE(s.AdvanceTo(2.0).ok());
    ASSERT_EQ(s.num_active_flows(), 2);
  };
  advance(sim);
  advance(ref);
  EXPECT_EQ(sim.num_reallocations(), 1);
  for (FlowId f : {f0, f1}) {
    EXPECT_EQ(sim.FindFlow(f)->current_rate, ref.FindFlow(f)->current_rate);
  }
  auto end = sim.RunUntilIdle();
  auto ref_end = ref.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  ASSERT_TRUE(ref_end.ok());
  EXPECT_EQ(*end, *ref_end);
  ExpectSameRecords(done, ref_done);
}

TEST(IncrementalSimulatorTest, ScaledDownDepartureResolves) {
  // Flows 0 and 1 pin 30 MB/s each on server 0's 40 MB/s uplink and are
  // scaled down to 20. When flow 0 finishes it leaves off its pin, so the
  // component is re-solved and flow 1 returns to its pin.
  Topology topo = BuildFullMesh(4, 2, MBps(100.0), MBps(40.0), MBps(40.0)).value();
  WanRoutingTable routing = WanRoutingTable::Build(topo, 2).value();
  ServerId src = topo.ServersIn(0)[0];
  auto p0 = MakeServerPath(topo, routing, src, topo.ServersIn(1)[0]).value();
  auto p1 = MakeServerPath(topo, routing, src, topo.ServersIn(2)[0]).value();
  NetworkSimulator sim(&topo);
  ReferenceSimulator ref(&topo);
  std::vector<FlowRecord> done;
  std::vector<FlowRecord> ref_done;
  sim.SetCompletionCallback([&](const FlowRecord& r) { done.push_back(r); });
  ref.SetCompletionCallback([&](const FlowRecord& r) { ref_done.push_back(r); });
  FlowId f1 = 0;
  auto start = [&](auto& s) {
    ASSERT_TRUE(s.StartFlow(p0.links, MB(20.0), MBps(30.0)).ok());  // 1 s at 20.
    f1 = s.StartFlow(p1.links, MB(1000.0), MBps(30.0)).value();
    ASSERT_TRUE(s.AdvanceTo(0.5).ok());
  };
  start(sim);
  start(ref);
  ASSERT_EQ(sim.num_reallocations(), 1);
  ASSERT_NEAR(sim.FindFlow(f1)->current_rate, MBps(20.0), 1e-3);
  auto advance = [](auto& s) {
    ASSERT_TRUE(s.AdvanceTo(2.0).ok());
    ASSERT_EQ(s.num_active_flows(), 1);
  };
  advance(sim);
  advance(ref);
  EXPECT_EQ(sim.num_reallocations(), 2);
  EXPECT_EQ(sim.FindFlow(f1)->current_rate, MBps(30.0));
  auto end = sim.RunUntilIdle();
  auto ref_end = ref.RunUntilIdle();
  ASSERT_TRUE(end.ok());
  ASSERT_TRUE(ref_end.ok());
  EXPECT_EQ(*end, *ref_end);
  ExpectSameRecords(done, ref_done);
}

TEST(IncrementalSimulatorTest, FairDepartureBlocksSkipsUntilNextPass) {
  // Flow f (pinned) links fair flow h (on server 0's uplink) to pinned flow b
  // (on the WAN link and destination NIC); b touches nothing of h's. The
  // mixed component pushes only its argmin (f), so b has no heap entry. After
  // h and then f are cancelled in one step, f's departure must still dirty
  // its links: otherwise b is never re-solved and never completes.
  Topology topo = BuildFullMesh(4, 2, MBps(100.0), MBps(40.0), MBps(40.0)).value();
  WanRoutingTable routing = WanRoutingTable::Build(topo, 2).value();
  NetworkSimulator sim(&topo);
  std::vector<FlowRecord> done;
  sim.SetCompletionCallback([&](const FlowRecord& r) { done.push_back(r); });
  ServerId s0 = topo.ServersIn(0)[0];
  ServerId dst = topo.ServersIn(1)[0];
  auto pf = MakeServerPath(topo, routing, s0, dst).value();
  auto ph = MakeServerPath(topo, routing, s0, topo.ServersIn(2)[0]).value();
  auto pb = MakeServerPath(topo, routing, topo.ServersIn(0)[1], dst).value();
  FlowId f = sim.StartFlow(pf.links, MB(50.0), MBps(5.0)).value();   // 10 s.
  FlowId h = sim.StartFlow(ph.links, MB(3500.0)).value();            // 100 s.
  FlowId b = sim.StartFlow(pb.links, MB(100.0), MBps(5.0)).value();  // 20 s.
  ASSERT_TRUE(sim.AdvanceTo(1.0).ok());
  ASSERT_TRUE(sim.CancelFlow(h).ok());
  ASSERT_TRUE(sim.CancelFlow(f).ok());
  auto end = sim.RunUntilIdle();
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, b);
  EXPECT_DOUBLE_EQ(done[0].end_time, 20.0);
}

// The incremental simulator and the reference on the same topology, by default a 4-DC x 2-server mesh (100 MB/s WAN, 40 MB/s NICs),
// driven in lockstep. Every Advance compares the clock, the active count and
// every link's bulk rate bitwise; Finish drains both and compares the
// completion records. Link ids: DC d server k has uplink 4d + 2k and
// downlink 4d + 2k + 1; the WAN links come after all NICs.
class RetainedTwins {
 public:
  static Topology Mesh() {
    return BuildFullMesh(4, 2, MBps(100.0), MBps(40.0), MBps(40.0)).value();
  }

  explicit RetainedTwins(Topology topo = Mesh())
      : topo_(std::move(topo)),
        routing_(WanRoutingTable::Build(topo_, 2).value()),
        inc_(&topo_),
        ref_(&topo_) {
    inc_.SetCompletionCallback([this](const FlowRecord& r) { inc_done_.push_back(r); });
    ref_.SetCompletionCallback([this](const FlowRecord& r) { ref_done_.push_back(r); });
  }

  const Topology& topo() const { return topo_; }
  const NetworkSimulator& inc() const { return inc_; }

  // DC `src_dc` server `src_k` -> DC `dst_dc` server `dst_k`.
  std::vector<LinkId> Path(DcId src_dc, int src_k, DcId dst_dc, int dst_k) const {
    return MakeServerPath(topo_, routing_, topo_.ServersIn(src_dc)[static_cast<size_t>(src_k)],
                          topo_.ServersIn(dst_dc)[static_cast<size_t>(dst_k)])
        .value()
        .links;
  }
  FlowId Start(const std::vector<LinkId>& links, Bytes bytes, Rate pinned) {
    FlowId a = inc_.StartFlow(links, bytes, pinned).value();
    FlowId b = ref_.StartFlow(links, bytes, pinned).value();
    EXPECT_EQ(a, b);
    return a;
  }
  void Cancel(FlowId id) {
    auto a = inc_.CancelFlow(id);
    auto b = ref_.CancelFlow(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
  }
  void Fault(LinkId link, double factor) {
    ASSERT_TRUE(inc_.SetLinkFaultFactor(link, factor).ok());
    ASSERT_TRUE(ref_.SetLinkFaultFactor(link, factor).ok());
  }
  void Advance(SimTime t) {
    ASSERT_TRUE(inc_.AdvanceTo(t).ok());
    ASSERT_TRUE(ref_.AdvanceTo(t).ok());
    ASSERT_EQ(inc_.now(), ref_.now());
    ASSERT_EQ(inc_.num_active_flows(), ref_.num_active_flows());
    for (LinkId l = 0; l < topo_.num_links(); ++l) {
      ASSERT_EQ(inc_.LinkBulkRate(l), ref_.LinkBulkRate(l)) << "t=" << t << " link " << l;
    }
  }
  Rate RateOf(FlowId id) const {
    const Rate a = inc_.FindFlow(id)->current_rate;
    EXPECT_EQ(a, ref_.FindFlow(id)->current_rate) << "flow " << id;
    return a;
  }
  void Finish() {
    auto a = inc_.RunUntilIdle();
    auto b = ref_.RunUntilIdle();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(*a, *b);
    ExpectSameRecords(inc_done_, ref_done_);
  }

 private:
  Topology topo_;
  WanRoutingTable routing_;
  NetworkSimulator inc_;
  ReferenceSimulator ref_;
  std::vector<FlowRecord> inc_done_;
  std::vector<FlowRecord> ref_done_;
};

TEST(RetainedComponentTest, SplitByAtPinDepartureThenScaledDepartureResolvesBoth) {
  // f0 and f1 pin 30 MB/s on DC0 server 0's uplink (link 0) and run at 20;
  // f2 and f3 pin 30 MB/s into DC2 server 1's downlink (link 11) and run at
  // 20. Bridge f4 runs at its 5 MB/s pin, sharing f0's destination NIC and
  // f2's source NIC, so all five form one all-pinned component, which the
  // first pass retains. f4 finishes at its pin (no re-solve) and splits the
  // retained set into {f0, f1} and {f2, f3}. Then scaled-down f2 finishes:
  // the retained set, now both parts, is re-solved in one go, and each part
  // gets the bits of its own solve.
  RetainedTwins tw;
  const FlowId f0 = tw.Start(tw.Path(0, 0, 1, 0), MB(1000.0), MBps(30.0));
  const FlowId f1 = tw.Start(tw.Path(0, 0, 2, 0), MB(1000.0), MBps(30.0));
  tw.Start(tw.Path(3, 0, 2, 1), MB(40.0), MBps(30.0));  // f2: 2 s at 20.
  const FlowId f3 = tw.Start(tw.Path(3, 1, 2, 1), MB(1000.0), MBps(30.0));
  tw.Start(tw.Path(3, 0, 1, 0), MB(5.0), MBps(5.0));  // f4: 1 s at its pin.
  tw.Advance(0.5);
  ASSERT_EQ(tw.inc().num_reallocations(), 1);
  ASSERT_NEAR(tw.RateOf(f3), MBps(20.0), 1e-3);
  tw.Advance(1.5);  // f4 left at its pin: nothing re-solved.
  ASSERT_EQ(tw.inc().num_active_flows(), 4);
  EXPECT_EQ(tw.inc().num_reallocations(), 1);
  tw.Advance(2.5);  // f2 left scaled down.
  ASSERT_EQ(tw.inc().num_active_flows(), 3);
  EXPECT_EQ(tw.inc().num_reallocations(), 2);
  EXPECT_EQ(tw.inc().num_retained_solves(), 1);
  EXPECT_EQ(tw.RateOf(f3), MBps(30.0));
  EXPECT_NEAR(tw.RateOf(f0), MBps(20.0), 1e-3);
  EXPECT_NEAR(tw.RateOf(f1), MBps(20.0), 1e-3);
  tw.Finish();
}

TEST(RetainedComponentTest, StartOnARetainedLinkDropsTheRetainedArrays) {
  // After the retained {f0, f1} has been solved, g starts on link 0, which
  // the retained set crosses. The next pass must gather the component anew
  // (g included) rather than re-solve the retained arrays without g.
  RetainedTwins tw;
  const FlowId f0 = tw.Start(tw.Path(0, 0, 1, 0), MB(1000.0), MBps(30.0));
  tw.Start(tw.Path(0, 0, 2, 0), MB(1000.0), MBps(30.0));
  tw.Advance(0.5);
  const FlowId g = tw.Start(tw.Path(0, 0, 3, 0), MB(100.0), MBps(10.0));
  tw.Advance(1.0);
  EXPECT_EQ(tw.inc().num_retained_solves(), 0);
  EXPECT_GT(tw.RateOf(g), 0.0);
  EXPECT_LT(tw.RateOf(f0), MBps(20.0));
  tw.Finish();
}

TEST(RetainedComponentTest, StartReusingAMemberSlotElsewhereDropsTheRetainedArrays) {
  // Retained {f0, f1, b}: f0 and f1 share link 0 and run at 20; b runs at
  // its pin into f0's destination NIC. In one step b is cancelled at its
  // pin (no re-solve), g starts in DC2 -> DC3, away from every retained
  // link, and takes b's freed slot, and scaled-down f1 is cancelled. The
  // slot that held b is live again, now holding g, so the retained arrays
  // (which would give g b's path and pin) must not survive the start: the
  // pass gathers {f0} and {g} anew.
  RetainedTwins tw;
  const FlowId f0 = tw.Start(tw.Path(0, 0, 1, 0), MB(1000.0), MBps(30.0));
  const FlowId f1 = tw.Start(tw.Path(0, 0, 2, 0), MB(1000.0), MBps(30.0));
  const FlowId b = tw.Start(tw.Path(0, 1, 1, 0), MB(1000.0), MBps(5.0));
  tw.Advance(0.5);
  ASSERT_EQ(tw.RateOf(b), MBps(5.0));
  tw.Cancel(b);
  const std::vector<LinkId> elsewhere = tw.Path(2, 0, 3, 0);
  for (LinkId l : elsewhere) {
    ASSERT_GT(l, 0);  // Link 0, the retained set's, is reached before g's.
  }
  const FlowId g = tw.Start(elsewhere, MB(100.0), MBps(10.0));
  tw.Cancel(f1);
  tw.Advance(1.0);
  EXPECT_EQ(tw.inc().num_retained_solves(), 0);
  EXPECT_EQ(tw.RateOf(f0), MBps(30.0));
  EXPECT_EQ(tw.RateOf(g), MBps(10.0));
  tw.Finish();
}

TEST(RetainedComponentTest, LocalityReorderDropsTheRetainedArrays) {
  // The retained {f0, f1} sit in slots 2 and 3 (two cancelled flows freed
  // slots 0 and 1 first). A 4,096-flow load away from the retained links
  // triggers the locality reorder, which moves f0 and f1 to slots 0 and 1,
  // and a fault on link 0 in the same step dirties the retained set. Its
  // arrays name the old slots; the load's starts have dropped them, so the
  // pass must gather the set anew from the reordered pool.
  RetainedTwins tw;
  const std::vector<LinkId> elsewhere = tw.Path(2, 0, 3, 0);
  const FlowId d0 = tw.Start(elsewhere, MB(1.0), MBps(1.0));
  const FlowId d1 = tw.Start(elsewhere, MB(1.0), MBps(1.0));
  const FlowId f0 = tw.Start(tw.Path(0, 0, 1, 0), MB(1000.0), MBps(30.0));
  const FlowId f1 = tw.Start(tw.Path(0, 0, 2, 0), MB(1000.0), MBps(30.0));
  tw.Cancel(d0);
  tw.Cancel(d1);
  tw.Advance(0.5);
  for (int i = 0; i < 4096; ++i) {
    tw.Start(elsewhere, MB(1.0), MBps(0.009));
  }
  tw.Fault(0, 0.5);
  tw.Advance(1.0);
  EXPECT_EQ(tw.inc().num_retained_solves(), 0);
  EXPECT_NEAR(tw.RateOf(f0), MBps(10.0), 1e-3);
  EXPECT_NEAR(tw.RateOf(f1), MBps(10.0), 1e-3);
  tw.Finish();
}

TEST(RetainedComponentTest, FaultOnARetainedLinkResolvesTheRetainedArrays) {
  // A capacity change only dirties links, so halving link 0 under the
  // retained {f0, f1} re-solves it from the retained arrays.
  RetainedTwins tw;
  const FlowId f0 = tw.Start(tw.Path(0, 0, 1, 0), MB(1000.0), MBps(30.0));
  const FlowId f1 = tw.Start(tw.Path(0, 0, 2, 0), MB(1000.0), MBps(30.0));
  tw.Advance(0.5);
  tw.Fault(0, 0.5);
  tw.Advance(1.0);
  EXPECT_EQ(tw.inc().num_retained_solves(), 1);
  EXPECT_NEAR(tw.RateOf(f0), MBps(10.0), 1e-3);
  EXPECT_NEAR(tw.RateOf(f1), MBps(10.0), 1e-3);
  tw.Fault(0, 1.0);
  tw.Advance(2.0);
  EXPECT_EQ(tw.inc().num_retained_solves(), 2);
  tw.Finish();
}

TEST(RetainedComponentTest, DrainedDirtyLinkLeavesTheRetainedArraysIntact) {
  // h runs alone from DC0 server 0, pinned above its 40 MB/s NIC, so it is
  // scaled down; the first pass solves it before the retained {f0, f1} on
  // DC2 server 0's uplink (link 8). Cancelling h dirties its now-empty links
  // 0, 5 and a WAN link, and halving link 8 dirties the retained set. The
  // pass reaches link 0 first: a seed that gathers nothing must leave the
  // retained arrays for link 8.
  RetainedTwins tw;
  const FlowId h = tw.Start(tw.Path(0, 0, 1, 0), MB(1000.0), MBps(50.0));
  const FlowId f0 = tw.Start(tw.Path(2, 0, 3, 0), MB(1000.0), MBps(30.0));
  const FlowId f1 = tw.Start(tw.Path(2, 0, 3, 1), MB(1000.0), MBps(30.0));
  tw.Advance(0.5);
  ASSERT_EQ(tw.RateOf(h), MBps(40.0));
  tw.Cancel(h);
  tw.Fault(8, 0.5);
  tw.Advance(1.0);
  EXPECT_EQ(tw.inc().num_retained_solves(), 1);
  EXPECT_NEAR(tw.RateOf(f0), MBps(10.0), 1e-3);
  EXPECT_NEAR(tw.RateOf(f1), MBps(10.0), 1e-3);
  tw.Finish();
}

TEST(RetainedComponentTest, StaleLoadIsReSummedWhenAFaultCutsItsLink) {
  // f0 and f1 pin 30 MB/s on link 0 and run at 20. b (5) and c (3) share
  // f0's destination NIC, link 5, whose first-round load is 38: under its
  // 40. c leaves at its pin (no re-solve), so link 5 keeps 38 as a stale
  // bound on its 35. Then a fault cuts link 5 to 20 MB/s: the bound no
  // longer proves the link fits, so the retained re-solve must re-sum it.
  // Its factor 20/35 beats link 0's 40/60. Catches a re-solve that trusts
  // the stale bound as the load (factor 20/38).
  RetainedTwins tw;
  const FlowId f0 = tw.Start(tw.Path(0, 0, 1, 0), MB(1000.0), MBps(30.0));
  const FlowId f1 = tw.Start(tw.Path(0, 0, 2, 0), MB(1000.0), MBps(30.0));
  const FlowId b = tw.Start(tw.Path(3, 0, 1, 0), MB(1000.0), MBps(5.0));
  tw.Start(tw.Path(3, 1, 1, 0), MB(3.0), MBps(3.0));  // c: 1 s at its pin.
  tw.Advance(0.5);
  ASSERT_NEAR(tw.RateOf(f0), MBps(20.0), 1e-3);
  tw.Advance(1.5);
  ASSERT_EQ(tw.inc().num_active_flows(), 3);
  ASSERT_EQ(tw.inc().num_reallocations(), 1);  // c's departure skipped.
  tw.Fault(5, 0.5);
  tw.Advance(2.0);
  EXPECT_EQ(tw.inc().num_retained_solves(), 1);
  EXPECT_NEAR(tw.RateOf(b), MBps(5.0 * 20.0 / 35.0), 1e-3);
  EXPECT_LT(tw.RateOf(f0), tw.RateOf(f1));
  tw.Finish();
}

TEST(RetainedComponentTest, EveryMemberOfALinkDeparts) {
  // f0 and f1 are link 0's only flows: pinned at 30, run at 20, and both
  // finish at 2 s in one event. g0 and g1 pin 25 on link 2 and run at 20;
  // g0 shares the DC0 -> DC1 WAN link with f0, so all four are one retained
  // set. The re-solve after f0 and f1 leave finds link 0 with no live
  // member; a fault on link 2 later re-solves the set again. Catches an
  // epilogue that walks every retained member, departed ones included (it
  // writes their pins back into the drained links' bulk rates).
  RetainedTwins tw;
  tw.Start(tw.Path(0, 0, 1, 0), MB(40.0), MBps(30.0));  // f0: 2 s at 20.
  tw.Start(tw.Path(0, 0, 2, 0), MB(40.0), MBps(30.0));  // f1: 2 s at 20.
  const FlowId g0 = tw.Start(tw.Path(0, 1, 1, 1), MB(1000.0), MBps(25.0));
  const FlowId g1 = tw.Start(tw.Path(0, 1, 3, 0), MB(1000.0), MBps(25.0));
  tw.Advance(1.0);
  ASSERT_NEAR(tw.RateOf(g0), MBps(20.0), 1e-3);
  tw.Advance(2.5);
  ASSERT_EQ(tw.inc().num_active_flows(), 2);
  EXPECT_EQ(tw.inc().num_retained_solves(), 1);
  EXPECT_EQ(tw.inc().LinkBulkRate(0), 0.0);
  tw.Fault(2, 0.25);
  tw.Advance(3.0);
  EXPECT_EQ(tw.inc().num_retained_solves(), 2);
  EXPECT_NEAR(tw.RateOf(g1), MBps(5.0), 1e-3);
  tw.Finish();
}

TEST(RetainedComponentTest, DeparturesOnOverAndFittingLinksAcrossConsecutiveResolves) {
  // Source NIC link 0 carries f0..f4 (pins 20, load 100: over) and link 2
  // carries g0..g2 (pins 15, load 45: over). f0, f1, g0 and f2 finish
  // scaled down at 1.25, 2.25, 2.7 and 3.0 s, each re-solving the retained
  // set; the rest then fit and leave at their pins. h0..h2 run at their
  // 4 MB/s pins into destination NICs that stay within capacity (each at
  // most 39 MB/s) and leave at 0.5, 1.5 and 2.5 s without a re-solve, so
  // those links stay stale across re-solves while the over links are
  // re-summed. Catches a re-sum that drops a departed member from the load
  // but not from the row: the next round's re-sum of that row counts it
  // again.
  RetainedTwins tw;
  const int dest[5][2] = {{1, 0}, {2, 0}, {3, 0}, {1, 1}, {2, 1}};
  for (int i = 0; i < 5; ++i) {
    tw.Start(tw.Path(0, 0, dest[i][0], dest[i][1]), MB(10.0 * (i + 1)), MBps(20.0));
  }
  tw.Start(tw.Path(0, 1, 3, 1), MB(36.0), MBps(15.0));   // g0.
  tw.Start(tw.Path(0, 1, 1, 0), MB(80.0), MBps(15.0));   // g1.
  tw.Start(tw.Path(0, 1, 2, 0), MB(100.0), MBps(15.0));  // g2.
  tw.Start(tw.Path(3, 0, 1, 0), MB(2.0), MBps(4.0));     // h0.
  tw.Start(tw.Path(3, 1, 2, 0), MB(6.0), MBps(4.0));     // h1.
  tw.Start(tw.Path(2, 1, 3, 1), MB(10.0), MBps(4.0));    // h2.
  for (int step = 1; step <= 24; ++step) {
    tw.Advance(0.25 * step);
  }
  EXPECT_EQ(tw.inc().num_retained_solves(), 4);
  EXPECT_EQ(tw.inc().num_reallocations(), 5);
  tw.Finish();
}

TEST(RetainedComponentTest, RoundCapCountsOnlyLinksWithALiveMember) {
  // Link 0 has a capacity of 10 subnormal units (denorm_min). Ten flows
  // pinned at 1 unit and one at 8 share it alone; d (pin 4) crosses it and
  // links 1 and 3, so the retained set spans three links. The first solve
  // fits in one round (d runs at 2). Cancelling d re-solves the set with
  // one live link: 18 units scale to 14, 13, 12, 12, ..., and the round cap
  // (live links + 1 = 2) stops at 13, the big flow at 3. Catches a cap
  // that counts every retained link (3 + 1 rounds: the big flow at 2).
  const Rate tiny = std::numeric_limits<double>::denorm_min();
  Topology topo = RetainedTwins::Mesh();
  ASSERT_TRUE(topo.SetLinkCapacity(0, 10.0 * tiny).ok());
  RetainedTwins tw(std::move(topo));
  std::vector<FlowId> all;
  for (int i = 0; i < 10; ++i) {
    all.push_back(tw.Start({0}, MB(1.0), tiny));
  }
  const FlowId big = tw.Start({0}, MB(1.0), 8.0 * tiny);
  const FlowId d = tw.Start({0, 1, 3}, MB(1.0), 4.0 * tiny);
  all.push_back(big);
  tw.Advance(1.0);
  ASSERT_EQ(tw.RateOf(big), 4.0 * tiny);
  ASSERT_EQ(tw.RateOf(d), 2.0 * tiny);
  tw.Cancel(d);
  tw.Advance(2.0);
  EXPECT_EQ(tw.inc().num_retained_solves(), 1);
  EXPECT_EQ(tw.RateOf(big), 3.0 * tiny);
  EXPECT_EQ(tw.RateOf(all[0]), tiny);
  for (FlowId id : all) {
    tw.Cancel(id);
  }
  tw.Finish();
}

TEST(IncrementalParityTest2, ControllerFingerprintMatchesPinnedReference) {
  // End-to-end: a full controller run (cycles, LP, cancel-and-credit churn)
  // over the incremental simulator reproduces pinned fingerprints. They were
  // captured from the same runs on a simulator mode, since removed, that
  // re-solved every component at every event and scanned for the next
  // completion; the incremental runs gave the same three values.
  constexpr uint64_t kReferenceFingerprint[] = {
      0x882040695d316b78ull, 0xa7d720aaa174e7aaull, 0x30cd3e1c16eb1303ull};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Topology topo = BuildFullMesh(3, 2, Gbps(1.0), MBps(20.0), MBps(20.0)).value();
    WanRoutingTable routing = WanRoutingTable::Build(topo, 3).value();
    BdsOptions base;
    base.cycle_length = 1.0;
    ControllerOptions options = ToControllerOptions(base);
    options.seed = seed;
    options.validate_invariants = true;
    options.restall_cycles = 3.0;  // Force some cancel-and-credit churn.
    BdsController controller(&topo, &routing, options);
    ASSERT_TRUE(controller
                    .SubmitJob(MakeJob(0, 0, {1, 2},
                                       MB(40.0 + 8.0 * static_cast<double>(seed)), MB(4.0))
                                   .value())
                    .ok());
    ASSERT_TRUE(
        controller.SubmitJob(MakeJob(1, 1, {0, 2}, MB(24.0), MB(4.0), 5.0).value()).ok());
    auto report = controller.Run(Hours(1.0));
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->completed);
    ASSERT_TRUE(report->max_link_overshoot.has_value());
    EXPECT_LE(*report->max_link_overshoot, 1e-4);
    EXPECT_EQ(report->Fingerprint(), kReferenceFingerprint[seed - 1]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bds
