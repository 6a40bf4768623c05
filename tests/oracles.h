// Reference solvers the parity suites compare the production code against.
// Each is the straightforward form of an algorithm whose tuned form lives in
// src/; none is linked into the library.

#ifndef BDS_TESTS_ORACLES_H_
#define BDS_TESTS_ORACLES_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/lp/mcf.h"
#include "src/lp/mcf_internal.h"
#include "src/topology/path.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace bds {

// A flow as one self-contained object: the input of AllocateReference. The
// simulator keeps its flows in a struct-of-arrays pool instead (FlowSoA,
// observed through FlowView).
struct Flow {
  FlowId id = kInvalidFlow;
  std::vector<LinkId> links;

  Bytes total_bytes = 0.0;
  // Bytes left to transfer *as of anchor_time*. Progress is lazy: between
  // rate changes the pair (anchor_time, remaining) plus current_rate fully
  // describe the flow, so untouched flows cost nothing per event. Use
  // RemainingAt(now) for the instantaneous value.
  Bytes remaining = 0.0;
  SimTime anchor_time = 0.0;

  // 0 means "fair share"; > 0 means pinned to at most this rate.
  Rate pinned_rate = 0.0;
  // Set by the bandwidth allocator at every reallocation; valid since
  // anchor_time.
  Rate current_rate = 0.0;

  SimTime start_time = 0.0;
  SimTime end_time = -1.0;  // < 0 while in flight.

  // Opaque cookies for the client (e.g. block id / job id); the simulator
  // never interprets them.
  int64_t tag = 0;
  int64_t tag2 = 0;

  bool pinned() const { return pinned_rate > 0.0; }
  bool completed() const { return end_time >= 0.0; }

  Bytes RemainingAt(SimTime t) const {
    Bytes left = remaining - current_rate * (t - anchor_time);
    return left > 0.0 ? left : 0.0;
  }
};

// The straightforward Fleischer loop (full rescan of a commodity's path
// lengths per push, every commodity visited every phase). SolveMcfFptas must
// match it bit for bit.
McfResult SolveMcfFptasReference(const McfInstance& instance, double epsilon = 0.1);

// SolveMcfFptasReference's push loop on its own, for a caller-chosen push
// cap: runs the phases from `length` (size flat.num_edges()) and accumulates
// into `raw_flow` (size flat.paths.size()), stopping after `max_pushes`
// pushes. Returns the number of pushes made. RunFptasPushLoop must leave the
// same lengths and raw flows after the same number of pushes.
int64_t FptasPushLoopReference(const mcf_internal::FlatMcf& flat, double epsilon, double delta,
                               int64_t max_pushes, std::vector<double>& length,
                               std::vector<double>& raw_flow);

// Phase 1 of progressive filling (pinned flows only) in its straightforward
// form, on BandwidthAllocator::AllocateSubset's flat arrays: every round
// re-sums every pinned path, including links that already fit, and scans
// all touched links in ascending id order, so the lowest-id link wins an
// exact tie. Fair flows (pinned[fi] == 0) get rate 0. On an all-pinned flow
// set AllocateSubset, which keeps rows and re-sums only for links still over
// capacity, must match it bit for bit.
void AllocatePinnedReference(const std::vector<Rate>& capacities, size_t n,
                             const int32_t* offsets, const LinkId* links, const Rate* pinned,
                             Rate* rate);

// The whole-network progressive-filling allocator: one global filling pass
// over all links, no component decomposition. Writes Flow::current_rate for
// every flow; completed flows get rate 0. The simulator's per-component
// rates must agree with it to floating-point reassociation noise.
void AllocateReference(const std::vector<Rate>& capacities, std::vector<Flow*>& flows);

// Enumerates all ServerPaths from `src` to `dst` (one per available WAN
// route, or the single intra-DC path) by walking the routing table.
// MakeServerPaths must return the same paths.
std::vector<ServerPath> EnumerateServerPaths(const Topology& topo, const WanRoutingTable& routing,
                                             ServerId src, ServerId dst);

}  // namespace bds

#endif  // BDS_TESTS_ORACLES_H_
