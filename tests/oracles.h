// Reference solvers the parity suites compare the production code against.
// Each is the straightforward form of an algorithm whose tuned form lives in
// src/; none is linked into the library.

#ifndef BDS_TESTS_ORACLES_H_
#define BDS_TESTS_ORACLES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/lp/mcf.h"
#include "src/lp/mcf_internal.h"
#include "src/simulator/bandwidth_allocator.h"
#include "src/simulator/flow.h"
#include "src/topology/path.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace bds {

// A flow as one self-contained object: the input of AllocateReference and
// the unit ReferenceSimulator keeps. NetworkSimulator keeps its flows in a
// struct-of-arrays pool instead (FlowSoA, observed through FlowView).
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

// NetworkSimulator's event loop in its straightforward form, sharing no code
// with it: flows are Flow objects kept in id order; after any change every
// link-connected component is re-solved by BandwidthAllocator::AllocateSubset
// (members in ascending id order, capacities recomputed from the nominal
// ones, the fault factors and the background rates); the next completion is
// found by scanning every flow; completions sharing one instant form one
// batch whose callbacks fire after the whole batch has left. Rates, anchors,
// per-link bulk rates and completion times use the same arithmetic as
// NetworkSimulator (a rate change re-anchors the flow, a link's bulk rate
// moves by new - old, and a drained link snaps to zero), so the incremental
// loop must match it bit for bit.
class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(const Topology* topo);

  StatusOr<FlowId> StartFlow(std::vector<LinkId> links, Bytes bytes, Rate pinned_rate = 0.0,
                             int64_t tag = 0, int64_t tag2 = 0);
  // Returns the bytes delivered; no completion fires.
  StatusOr<Bytes> CancelFlow(FlowId id);
  // nullptr when the flow completed, was cancelled or never existed.
  const Flow* FindFlow(FlowId id) const;
  int num_active_flows() const { return static_cast<int>(flows_.size()); }

  Status SetLinkFaultFactor(LinkId link, double factor);
  Status SetBackgroundRate(LinkId link, Rate rate);
  double MaxCapacityViolation() const;
  Rate LinkBulkRate(LinkId link) const { return link_rate_[static_cast<size_t>(link)]; }

  SimTime now() const { return now_; }
  Status AdvanceTo(SimTime t);
  StatusOr<SimTime> RunUntilIdle(SimTime deadline = kTimeInfinity);

  void SetCompletionCallback(std::function<void(const FlowRecord&)> cb) {
    on_complete_ = std::move(cb);
  }
  // Component solves, counted as NetworkSimulator::num_reallocations() does.
  int64_t num_reallocations() const { return num_reallocations_; }
  int64_t num_completion_events() const { return num_events_; }

 private:
  // max(0, nominal * fault factor - background) for every link.
  std::vector<Rate> UsableCapacities() const;
  void Reallocate();
  void Detach(const Flow& f);
  SimTime NextCompletionTime() const;
  void CompleteBatch(SimTime t);

  const Topology* topo_;
  BandwidthAllocator allocator_;
  std::map<FlowId, Flow> flows_;  // Active flows.
  FlowId next_id_ = 0;
  SimTime now_ = 0.0;
  bool dirty_ = false;  // Something changed since the last reallocation.
  std::vector<double> fault_factor_;
  std::vector<Rate> background_;
  std::vector<Rate> link_rate_;   // Bulk rate per link.
  std::vector<int> link_flows_;   // Active flows per link.
  std::function<void(const FlowRecord&)> on_complete_;
  int64_t num_reallocations_ = 0;
  int64_t num_events_ = 0;
};

// Enumerates all ServerPaths from `src` to `dst` (one per available WAN
// route, or the single intra-DC path) by walking the routing table.
// MakeServerPaths must return the same paths.
std::vector<ServerPath> EnumerateServerPaths(const Topology& topo, const WanRoutingTable& routing,
                                             ServerId src, ServerId dst);

}  // namespace bds

#endif  // BDS_TESTS_ORACLES_H_
