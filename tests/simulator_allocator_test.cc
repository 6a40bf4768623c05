#include "src/simulator/bandwidth_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/common/types.h"
#include "src/simulator/flow.h"
#include "src/simulator/network_simulator.h"
#include "src/topology/topology.h"
#include "tests/oracles.h"

namespace bds {
namespace {

Flow MakeFlow(FlowId id, std::vector<LinkId> links, Rate pinned = 0.0) {
  Flow f;
  f.id = id;
  f.links = std::move(links);
  f.total_bytes = 100.0;
  f.remaining = 100.0;
  f.pinned_rate = pinned;
  return f;
}

std::vector<Flow*> Ptrs(std::vector<Flow>& flows) {
  std::vector<Flow*> out;
  for (Flow& f : flows) {
    out.push_back(&f);
  }
  return out;
}

// Flattens `flows` into the allocator's CSR arrays, solves them as one
// instance, and writes each flow's current_rate back.
void Allocate(BandwidthAllocator& alloc, const std::vector<Rate>& caps,
              std::vector<Flow>& flows) {
  std::vector<int32_t> offsets{0};
  std::vector<LinkId> links;
  std::vector<Rate> pinned;
  for (const Flow& f : flows) {
    links.insert(links.end(), f.links.begin(), f.links.end());
    offsets.push_back(static_cast<int32_t>(links.size()));
    pinned.push_back(f.pinned_rate);
  }
  std::vector<Rate> rate(flows.size(), -1.0);
  alloc.AllocateSubset(caps, flows.size(), offsets.data(), links.data(), pinned.data(),
                       rate.data());
  for (size_t i = 0; i < flows.size(); ++i) {
    flows[i].current_rate = rate[i];
  }
}

TEST(BandwidthAllocatorTest, SingleFlowGetsBottleneck) {
  std::vector<Rate> caps{10.0, 4.0, 8.0};
  std::vector<Flow> flows{MakeFlow(0, {0, 1, 2})};
  BandwidthAllocator alloc;
  Allocate(alloc, caps, flows);
  EXPECT_NEAR(flows[0].current_rate, 4.0, 1e-9);
}

TEST(BandwidthAllocatorTest, TwoFlowsShareEvenly) {
  std::vector<Rate> caps{10.0};
  std::vector<Flow> flows{MakeFlow(0, {0}), MakeFlow(1, {0})};
  BandwidthAllocator alloc;
  Allocate(alloc, caps, flows);
  EXPECT_NEAR(flows[0].current_rate, 5.0, 1e-9);
  EXPECT_NEAR(flows[1].current_rate, 5.0, 1e-9);
}

TEST(BandwidthAllocatorTest, MaxMinClassicExample) {
  // Flow 0 crosses links 0 and 1; flow 1 only link 0; flow 2 only link 1.
  // Link 0 cap 10, link 1 cap 4. Max-min: flow 0 and 2 limited by link 1
  // (2 each); flow 1 then takes the rest of link 0 (8).
  std::vector<Rate> caps{10.0, 4.0};
  std::vector<Flow> flows{MakeFlow(0, {0, 1}), MakeFlow(1, {0}), MakeFlow(2, {1})};
  BandwidthAllocator alloc;
  Allocate(alloc, caps, flows);
  EXPECT_NEAR(flows[0].current_rate, 2.0, 1e-9);
  EXPECT_NEAR(flows[1].current_rate, 8.0, 1e-9);
  EXPECT_NEAR(flows[2].current_rate, 2.0, 1e-9);
}

TEST(BandwidthAllocatorTest, PinnedFlowKeepsRateWhenFeasible) {
  std::vector<Rate> caps{10.0};
  std::vector<Flow> flows{MakeFlow(0, {0}, 3.0), MakeFlow(1, {0})};
  BandwidthAllocator alloc;
  Allocate(alloc, caps, flows);
  EXPECT_NEAR(flows[0].current_rate, 3.0, 1e-9);
  EXPECT_NEAR(flows[1].current_rate, 7.0, 1e-9);  // Fair flow takes the rest.
}

TEST(BandwidthAllocatorTest, OversubscribedPinnedFlowsScaledProportionally) {
  std::vector<Rate> caps{6.0};
  std::vector<Flow> flows{MakeFlow(0, {0}, 6.0), MakeFlow(1, {0}, 6.0)};
  BandwidthAllocator alloc;
  Allocate(alloc, caps, flows);
  EXPECT_NEAR(flows[0].current_rate, 3.0, 1e-9);
  EXPECT_NEAR(flows[1].current_rate, 3.0, 1e-9);
}

TEST(BandwidthAllocatorTest, PinnedScalingCascades) {
  // Flow 0 pinned at 8 through links {0,1}; link 0 cap 4 halves it; flow 1
  // pinned at 4 on link 1 still fits after flow 0 shrinks (cap 8).
  std::vector<Rate> caps{4.0, 8.0};
  std::vector<Flow> flows{MakeFlow(0, {0, 1}, 8.0), MakeFlow(1, {1}, 4.0)};
  BandwidthAllocator alloc;
  Allocate(alloc, caps, flows);
  EXPECT_NEAR(flows[0].current_rate, 4.0, 1e-9);
  EXPECT_NEAR(flows[1].current_rate, 4.0, 1e-9);
}

TEST(BandwidthAllocatorTest, ZeroCapacityLinkStallsFlows) {
  std::vector<Rate> caps{0.0, 10.0};
  std::vector<Flow> flows{MakeFlow(0, {0, 1}), MakeFlow(1, {1})};
  BandwidthAllocator alloc;
  Allocate(alloc, caps, flows);
  EXPECT_NEAR(flows[0].current_rate, 0.0, 1e-9);
  EXPECT_NEAR(flows[1].current_rate, 10.0, 1e-9);
}

TEST(BandwidthAllocatorTest, NoFlowsIsANoOp) {
  std::vector<Rate> caps{10.0};
  std::vector<Flow> empty;
  BandwidthAllocator alloc;
  Allocate(alloc, caps, empty);  // Must not crash.
}

TEST(BandwidthAllocatorTest, MixedPinnedAndFairRespectCapacity) {
  std::vector<Rate> caps{10.0};
  std::vector<Flow> flows{MakeFlow(0, {0}, 4.0), MakeFlow(1, {0}), MakeFlow(2, {0})};
  BandwidthAllocator alloc;
  Allocate(alloc, caps, flows);
  EXPECT_NEAR(flows[0].current_rate, 4.0, 1e-9);
  EXPECT_NEAR(flows[1].current_rate, 3.0, 1e-9);
  EXPECT_NEAR(flows[2].current_rate, 3.0, 1e-9);
}

// Deterministic random allocation instance shared by the property tests.
struct RandomCase {
  std::vector<Rate> caps;
  std::vector<Flow> flows;
};

RandomCase MakeRandomCase(uint64_t seed) {
  // Simple xorshift for test-local determinism.
  auto next = [&]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  RandomCase rc;
  int num_links = 1 + static_cast<int>(next() % 8);
  int num_flows = 1 + static_cast<int>(next() % 20);
  for (int l = 0; l < num_links; ++l) {
    rc.caps.push_back(1.0 + static_cast<double>(next() % 100));
  }
  for (int f = 0; f < num_flows; ++f) {
    std::vector<LinkId> links;
    int n = 1 + static_cast<int>(next() % 3);
    for (int i = 0; i < n; ++i) {
      LinkId cand = static_cast<LinkId>(next() % num_links);
      bool dup = false;
      for (LinkId l : links) {
        if (l == cand) {
          dup = true;
        }
      }
      if (!dup) {
        links.push_back(cand);
      }
    }
    double pinned = (next() % 3 == 0) ? 1.0 + static_cast<double>(next() % 50) : 0.0;
    rc.flows.push_back(MakeFlow(f, links, pinned));
  }
  return rc;
}

// Property: allocations never violate link capacity, for many random cases.
class AllocatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorPropertyTest, CapacityNeverViolatedAndWorkConserving) {
  RandomCase rc = MakeRandomCase(static_cast<uint64_t>(GetParam()));
  std::vector<Rate>& caps = rc.caps;
  std::vector<Flow>& flows = rc.flows;
  BandwidthAllocator alloc;
  Allocate(alloc, caps, flows);

  // Capacity constraint per link.
  std::vector<double> load(caps.size(), 0.0);
  for (const Flow& f : flows) {
    EXPECT_GE(f.current_rate, 0.0);
    for (LinkId l : f.links) {
      load[static_cast<size_t>(l)] += f.current_rate;
    }
  }
  for (size_t l = 0; l < caps.size(); ++l) {
    EXPECT_LE(load[l], caps[l] * (1.0 + 1e-6)) << "link " << l;
  }

  // Work conservation for fair flows: every unpinned flow must cross at
  // least one (nearly) saturated link.
  for (const Flow& f : flows) {
    if (f.pinned()) {
      continue;
    }
    bool bottlenecked = false;
    for (LinkId l : f.links) {
      if (load[static_cast<size_t>(l)] >= caps[static_cast<size_t>(l)] * (1.0 - 1e-6) -
                                              kFluidEpsilon) {
        bottlenecked = true;
      }
    }
    EXPECT_TRUE(bottlenecked) << "fair flow " << f.id << " is not at a bottleneck";
  }
}

// Property: the simulator's per-component rates agree with the global
// reference solver. The random case's links become parallel WAN links of a
// two-DC topology and its flows are started in a NetworkSimulator, which
// decomposes the incidence graph into link-connected components and solves
// each with AllocateSubset. Rates are mathematically equal; arithmetically
// they may differ by reassociated fill increments, so compare to 1e-9
// relative.
TEST_P(AllocatorPropertyTest, ComponentDecompositionMatchesReference) {
  RandomCase rc = MakeRandomCase(static_cast<uint64_t>(GetParam()));
  Topology topo;
  const DcId a = topo.AddDatacenter("a");
  const DcId b = topo.AddDatacenter("b");
  for (size_t l = 0; l < rc.caps.size(); ++l) {
    ASSERT_EQ(topo.AddWanLink(a, b, rc.caps[l]).value(), static_cast<LinkId>(l));
  }
  NetworkSimulator sim(&topo);
  std::vector<FlowId> ids;
  for (const Flow& f : rc.flows) {
    ids.push_back(sim.StartFlow(f.links, 1e12, f.pinned_rate).value());
  }
  ASSERT_TRUE(sim.AdvanceTo(0.0).ok());  // Solves every dirty component.

  auto ptrs = Ptrs(rc.flows);
  AllocateReference(rc.caps, ptrs);
  for (size_t i = 0; i < rc.flows.size(); ++i) {
    const std::optional<FlowView> view = sim.FindFlow(ids[i]);
    ASSERT_TRUE(view.has_value()) << "flow " << i;
    const double ref = rc.flows[i].current_rate;
    const double tol = 1e-9 * std::max(1.0, std::abs(ref));
    EXPECT_NEAR(view->current_rate, ref, tol) << "flow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCases, AllocatorPropertyTest,
                         ::testing::Range(1, 60));

// A flow set in AllocateSubset's flat form: CSR paths plus pinned rates.
struct FlatFlows {
  std::vector<int32_t> offsets{0};
  std::vector<LinkId> links;
  std::vector<Rate> pinned;

  void Add(std::vector<LinkId> path, Rate pin) {
    links.insert(links.end(), path.begin(), path.end());
    offsets.push_back(static_cast<int32_t>(links.size()));
    pinned.push_back(pin);
  }
};

// Solves `f` with AllocateSubset (on `alloc`, or on a fresh allocator) and
// with the pinned-phase reference, and requires bitwise-equal rates. Returns
// AllocateSubset's rates.
std::vector<Rate> ExpectPinnedPhaseMatchesReference(const std::vector<Rate>& caps,
                                                    const FlatFlows& f,
                                                    BandwidthAllocator* alloc = nullptr) {
  const size_t n = f.pinned.size();
  std::vector<Rate> got(n, -1.0);
  std::vector<Rate> want(n, -2.0);
  BandwidthAllocator fresh;
  (alloc ? *alloc : fresh)
      .AllocateSubset(caps, n, f.offsets.data(), f.links.data(), f.pinned.data(), got.data());
  AllocatePinnedReference(caps, n, f.offsets.data(), f.links.data(), f.pinned.data(),
                          want.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], want[i]) << "flow " << i;
  }
  return got;
}

TEST(PinnedPhaseReferenceTest, ExactTieGoesToLowerLinkIdWhateverTheTouchOrder) {
  // Links 5 and 3 are equally oversubscribed (16 on 10), and flow 0 touches
  // link 5 first. The lower id must go first: scaling link 3 first leaves
  // flow 2 at 5 and flow 1 at 8 * 10/13; scaling link 5 first would swap them.
  std::vector<Rate> caps(6, 10.0);
  FlatFlows f;
  f.Add({5, 3}, 8.0);
  f.Add({5}, 8.0);
  f.Add({3}, 8.0);
  std::vector<Rate> rate = ExpectPinnedPhaseMatchesReference(caps, f);
  EXPECT_EQ(rate[2], 5.0);
  EXPECT_GT(rate[1], 6.0);
}

// Randomized all-pinned components built to oversubscribe: few distinct
// capacities and pins make exactly equal factors common, and on even seeds
// every path lists its links in descending id order.
class PinnedPhaseParityTest : public ::testing::TestWithParam<int> {};

TEST_P(PinnedPhaseParityTest, AllocateSubsetMatchesReferenceBitwise) {
  uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ull + 1;
  auto next = [&]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  static const Rate kCaps[] = {10.0, 20.0, 40.0};
  static const Rate kPins[] = {5.0, 10.0, 20.0, 7.5};
  const int num_links = 2 + static_cast<int>(next() % 11);
  const int num_flows = 1 + static_cast<int>(next() % 40);
  const bool descending = GetParam() % 2 == 0;
  std::vector<Rate> caps;
  for (int l = 0; l < num_links; ++l) {
    caps.push_back(kCaps[next() % 3]);
  }
  FlatFlows f;
  for (int fi = 0; fi < num_flows; ++fi) {
    std::vector<LinkId> path;
    const int len = 1 + static_cast<int>(next() % 4);
    for (int i = 0; i < len; ++i) {
      LinkId l = static_cast<LinkId>(next() % static_cast<uint64_t>(num_links));
      if (std::find(path.begin(), path.end(), l) == path.end()) {
        path.push_back(l);
      }
    }
    if (descending) {
      std::sort(path.rbegin(), path.rend());
    }
    f.Add(path, kPins[next() % 4]);
  }
  ExpectPinnedPhaseMatchesReference(caps, f);
}

INSTANTIATE_TEST_SUITE_P(RandomComponents, PinnedPhaseParityTest, ::testing::Range(1, 201));

// Phase 1 works only on the links that are still over capacity. The cases
// below pin down what that must not change.

TEST(PinnedPhaseReferenceTest, LinkFixedByAnotherLinksScaleDownIsNeverScaled) {
  // Both links start over capacity (16 and 12 on 10). Scaling link 0 halves
  // flows 0 and 1 to 5 and brings link 1 down to 9, so link 1 is never the
  // worst link and flow 2 keeps its pin exactly.
  std::vector<Rate> caps{10.0, 10.0};
  FlatFlows f;
  f.Add({0, 1}, 8.0);
  f.Add({0}, 8.0);
  f.Add({1}, 4.0);
  std::vector<Rate> rate = ExpectPinnedPhaseMatchesReference(caps, f);
  EXPECT_EQ(rate[0], 5.0);
  EXPECT_EQ(rate[1], 5.0);
  EXPECT_EQ(rate[2], 4.0);
}

TEST(PinnedPhaseReferenceTest, ZeroCapacityLinkStopsItsPinnedFlows) {
  // Link 0 has no capacity: its flows drop to 0 and link 1, over capacity
  // at first (13 on 10), then fits with flow 1 at its pin.
  std::vector<Rate> caps{0.0, 10.0, 10.0};
  FlatFlows f;
  f.Add({0, 1}, 5.0);
  f.Add({1, 2}, 8.0);
  f.Add({0}, 3.0);
  std::vector<Rate> rate = ExpectPinnedPhaseMatchesReference(caps, f);
  EXPECT_EQ(rate[0], 0.0);
  EXPECT_EQ(rate[1], 8.0);
  EXPECT_EQ(rate[2], 0.0);
}

// The bulk shape of bench_sim_hotpath's MakeBulkWorkload as one flat
// component: 20 source NICs (links 0-19) send to 21 destination NICs (links
// 20-40), five flows per pair. Each source's pins sum to 1.1-1.3x its
// 40 MB/s and are split unevenly among its flows. Every `fair_every`-th flow
// is left unpinned (0 = none).
struct BulkCase {
  std::vector<Rate> caps;
  FlatFlows flows;
};

BulkCase MakeBulkCase(uint64_t seed, int fair_every) {
  auto next = [&]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  constexpr int kSources = 20;
  constexpr int kDests = 21;
  constexpr int kFlowsPerPair = 5;
  BulkCase bc;
  bc.caps.assign(kSources + kDests, MBps(40.0));
  int index = 0;
  for (int src = 0; src < kSources; ++src) {
    std::vector<double> weights;
    double weight_sum = 0.0;
    for (int k = 0; k < kDests * kFlowsPerPair; ++k) {
      weights.push_back(1.0 + static_cast<double>(next() % 4));
      weight_sum += weights.back();
    }
    const Rate nic_pins = MBps(40.0) * (1.1 + 0.2 * static_cast<double>(next() % 1001) / 1000.0);
    for (int k = 0; k < kDests * kFlowsPerPair; ++k, ++index) {
      const LinkId dst_link = static_cast<LinkId>(kSources + k / kFlowsPerPair);
      const bool fair = fair_every > 0 && index % fair_every == 0;
      bc.flows.Add({static_cast<LinkId>(src), dst_link},
                   fair ? 0.0 : nic_pins * weights[static_cast<size_t>(k)] / weight_sum);
    }
  }
  return bc;
}

TEST(PinnedPhaseReferenceTest, BulkShapedComponentMatchesReferenceBitwise) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    BulkCase bc = MakeBulkCase(seed, /*fair_every=*/0);
    ASSERT_EQ(bc.flows.pinned.size(), 2100u);
    BandwidthAllocator alloc;
    ExpectPinnedPhaseMatchesReference(bc.caps, bc.flows, &alloc);
    const BandwidthAllocator::Work work = alloc.TakeWork();
    EXPECT_GT(work.pinned_rounds, 0) << "seed " << seed;
    EXPECT_GT(work.resum_terms, 0) << "seed " << seed;
  }
}

TEST(PinnedPhaseReferenceTest, BulkShapedComponentWithFairFlowsMatchesReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    BulkCase bc = MakeBulkCase(seed, /*fair_every=*/7);
    const FlatFlows& f = bc.flows;
    std::vector<Flow> flows;
    for (size_t i = 0; i < f.pinned.size(); ++i) {
      flows.push_back(MakeFlow(static_cast<FlowId>(i),
                               {f.links.begin() + f.offsets[i], f.links.begin() + f.offsets[i + 1]},
                               f.pinned[i]));
    }
    BandwidthAllocator alloc;
    Allocate(alloc, bc.caps, flows);
    std::vector<Flow> ref = flows;
    auto ptrs = Ptrs(ref);
    AllocateReference(bc.caps, ptrs);
    for (size_t i = 0; i < flows.size(); ++i) {
      const double want = ref[i].current_rate;
      EXPECT_NEAR(flows[i].current_rate, want, 1e-9 * std::max(1.0, std::abs(want)))
          << "seed " << seed << " flow " << i;
    }
  }
}

TEST(PinnedPhaseReferenceTest, BackToBackCallsLeaveNoMarks) {
  // One allocator solves four link sets in turn. The second call ends at the
  // round cap: three flows pinned at the smallest subnormal on link 4, of
  // twice that capacity, scale by 2/3 and round straight back to their pins,
  // so the link never fits. The third call reuses link 4 as a link that fits
  // next to two that do not; a mark left on it would put its flows into
  // another link's row.
  const Rate tiny = std::numeric_limits<double>::denorm_min();
  BandwidthAllocator alloc;
  {
    std::vector<Rate> caps(8, 10.0);
    FlatFlows f;
    f.Add({0, 1}, 8.0);
    f.Add({0}, 8.0);
    f.Add({1, 2}, 4.0);
    ExpectPinnedPhaseMatchesReference(caps, f, &alloc);
    alloc.TakeWork();
  }
  {
    std::vector<Rate> caps(8, 10.0);
    caps[4] = 2.0 * tiny;
    FlatFlows f;
    f.Add({3, 4}, tiny);
    f.Add({4, 5}, tiny);
    f.Add({4}, tiny);
    std::vector<Rate> rate = ExpectPinnedPhaseMatchesReference(caps, f, &alloc);
    EXPECT_EQ(rate[0] + rate[1] + rate[2], 3.0 * tiny);  // Still over capacity.
    EXPECT_EQ(alloc.TakeWork().pinned_rounds, 4);  // The cap: 3 used links + 1.
  }
  {
    std::vector<Rate> caps(8, 10.0);
    FlatFlows f;
    f.Add({4, 6}, 6.0);
    f.Add({6, 3}, 12.0);
    f.Add({5, 4}, 3.0);
    f.Add({5}, 2.0);
    std::vector<Rate> rate = ExpectPinnedPhaseMatchesReference(caps, f, &alloc);
    EXPECT_EQ(rate[2], 3.0);
    EXPECT_EQ(rate[3], 2.0);
  }
  {
    std::vector<Rate> caps(8, 10.0);
    FlatFlows f;
    f.Add({3, 5}, 9.0);
    f.Add({4, 5}, 9.0);
    f.Add({3, 4, 7}, 3.0);
    ExpectPinnedPhaseMatchesReference(caps, f, &alloc);
  }
}

// Retained re-solves: after an all-pinned AllocateSubset call, Depart and
// ResolveRetained on the same arrays must give the live members the bits a
// fresh AllocateSubset call on just those members gives them, and do the
// same phase-1 work (rounds and re-summed terms), whatever left and however
// the capacities moved in between. Four re-solves per case; between them a
// quarter of the live members leave (sometimes none) and some capacities
// are cut or raised, so stale bounds meet both.
class RetainedResolveParityTest : public ::testing::TestWithParam<int> {};

TEST_P(RetainedResolveParityTest, ResolveMatchesFreshSolveOfTheLiveMembersBitwise) {
  uint64_t seed = static_cast<uint64_t>(GetParam()) * 0xD1B54A32D192ED03ull + 7;
  auto next = [&]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  static const Rate kCaps[] = {10.0, 20.0, 40.0};
  static const Rate kPins[] = {5.0, 10.0, 20.0, 7.5};
  static const double kCapMoves[] = {0.5, 0.8, 1.0, 1.0, 1.25};
  const int num_links = 2 + static_cast<int>(next() % 11);
  const int num_flows = 1 + static_cast<int>(next() % 60);
  std::vector<Rate> caps;
  for (int l = 0; l < num_links; ++l) {
    caps.push_back(kCaps[next() % 3]);
  }
  FlatFlows f;
  for (int fi = 0; fi < num_flows; ++fi) {
    std::vector<LinkId> path;
    const int len = 1 + static_cast<int>(next() % 4);
    for (int i = 0; i < len; ++i) {
      LinkId l = static_cast<LinkId>(next() % static_cast<uint64_t>(num_links));
      if (std::find(path.begin(), path.end(), l) == path.end()) {
        path.push_back(l);
      }
    }
    f.Add(path, kPins[next() % 4]);
  }
  const size_t n = f.pinned.size();
  BandwidthAllocator retained;
  std::vector<Rate> got(n);
  retained.AllocateSubset(caps, n, f.offsets.data(), f.links.data(), f.pinned.data(),
                          got.data());
  std::vector<int32_t> live(n);
  for (size_t i = 0; i < n; ++i) {
    live[i] = static_cast<int32_t>(i);
  }
  for (int resolve = 0; resolve < 4; ++resolve) {
    std::vector<int32_t> kept;
    for (int32_t fi : live) {
      if (next() % 4 == 0) {
        retained.Depart(fi, f.offsets.data(), f.links.data());
      } else {
        kept.push_back(fi);
      }
    }
    live = kept;
    if (live.empty()) {
      break;
    }
    for (Rate& cap : caps) {
      cap *= kCapMoves[next() % 5];
    }
    retained.TakeWork();
    retained.ResolveRetained(caps, n, f.offsets.data(), f.links.data(), f.pinned.data(),
                             got.data());
    FlatFlows sub;
    for (int32_t fi : live) {
      sub.Add({f.links.begin() + f.offsets[static_cast<size_t>(fi)],
               f.links.begin() + f.offsets[static_cast<size_t>(fi) + 1]},
              f.pinned[static_cast<size_t>(fi)]);
    }
    BandwidthAllocator fresh;
    const std::vector<Rate> want = ExpectPinnedPhaseMatchesReference(caps, sub, &fresh);
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(got[static_cast<size_t>(live[i])], want[i])
          << "re-solve " << resolve << " flow " << live[i];
    }
    const BandwidthAllocator::Work a = retained.TakeWork();
    const BandwidthAllocator::Work b = fresh.TakeWork();
    EXPECT_EQ(a.pinned_rounds, b.pinned_rounds) << "re-solve " << resolve;
    EXPECT_EQ(a.resum_terms, b.resum_terms) << "re-solve " << resolve;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomComponents, RetainedResolveParityTest, ::testing::Range(1, 101));

}  // namespace
}  // namespace bds
