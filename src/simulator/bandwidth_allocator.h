// Computes per-flow rates given link capacities.
//
// Algorithm (progressive filling):
//  1. Pinned flows request their pinned rate. If any link is oversubscribed
//     by pinned flows alone, all pinned flows crossing it are scaled down
//     proportionally (iterated to a fixed point) — this models rate limits
//     that were set slightly stale against shrinking residual capacity.
//  2. Unpinned flows share the remaining capacity max-min fairly: all active
//     flows grow at the same rate until a link saturates; flows through
//     saturated links freeze; repeat.
//
// Rates under progressive filling decompose by connected components of the
// flow-link incidence graph, so the simulator solves one component at a time
// (flows ordered by id) and calls AllocateSubset on flat arrays it gathered
// from its struct-of-arrays pool. The randomized property suite checks the
// simulator's per-component rates against the whole-network reference solver
// in tests/oracles.cc (rates agree to floating-point reassociation noise,
// ~1e-12 relative).
//
// Phase 1 sums each link's load once, in ascending flow order, and collects
// the links still over capacity. Only when that set is non-empty does it
// build link -> pinned-flow rows (ascending flow order again), and only for
// the links in the set. Every scale-down round then re-sums, row by row, the
// links of the set that the scaled flows cross, which gives the bits of a
// full recompute; a link leaves the set once it fits. Loads never rise
// within a call (rates only shrink, and rounded addition is monotone), so a
// link outside the set stays within capacity and needs no work. The worst
// link is the lexicographic minimum of (factor, link id), and phase 2 only
// takes minima over links and updates each link on its own, so neither
// phase depends on the order in which the component's links were first
// touched: the solver never sorts them. tests/oracles.cc keeps the
// full-recompute, sorted-link phase 1 as the bitwise reference
// (AllocatePinnedReference).
//
// Scratch state is generation-stamped per link, so a solve costs
// O(component links + flows), not O(topology links), with no per-call
// clears or allocations at steady state.

#ifndef BDS_SRC_SIMULATOR_BANDWIDTH_ALLOCATOR_H_
#define BDS_SRC_SIMULATOR_BANDWIDTH_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace bds {

class BandwidthAllocator {
 public:
  // Solves one flow set as a single progressive-filling instance, touching
  // only the links it crosses. Callers pass one link-connected component,
  // sorted by flow id, for canonical (reproducible) results. `capacities[l]`
  // is the residual capacity of link l (already net of background traffic).
  // Flow fi's path is links[offsets[fi]..offsets[fi+1]); pinned[fi] is its
  // pinned rate (0 = fair share); rate[fi] receives the result. The
  // component's slots are scattered across the simulator's pool, so solving
  // on a component-local contiguous copy keeps every waterfill pass inside a
  // few cache lines instead of re-missing per slot per round.
  void AllocateSubset(const std::vector<Rate>& capacities, size_t n,
                      const int32_t* offsets, const LinkId* links, const Rate* pinned,
                      Rate* rate);

  // Phase-1 work done since the last TakeWork(): scale-down rounds, and row
  // terms summed by the re-sums after them. Telemetry only; no rate depends
  // on it.
  struct Work {
    int64_t pinned_rounds = 0;
    int64_t resum_terms = 0;
  };
  Work TakeWork() { return std::exchange(work_, Work{}); }

 private:
  void EnsureScratch(size_t num_links);
  // Fills rows_ with each over_ link's pinned flows, ascending.
  void BuildPinnedRows(const int32_t* offsets, const LinkId* links);

  // Generation-stamped per-link scratch (valid when link_gen_[l] == gen_).
  uint64_t gen_ = 0;
  std::vector<uint64_t> link_gen_;
  std::vector<Rate> residual_;
  std::vector<Rate> load_;
  std::vector<int> active_count_;
  std::vector<char> link_saturated_;
  std::vector<size_t> used_links_;  // In first-touch order.

  // Phase 1's links still over capacity. over_mark_ is 1 while a link is in
  // over_ and 2 while it also waits in resum_; it is all zero between calls.
  std::vector<size_t> over_;
  std::vector<char> over_mark_;
  std::vector<int32_t> link_row_;  // Link -> its row: its index in the first over_.
  std::vector<size_t> resum_;      // Links to re-sum after a scale-down.

  // Phase-1 link -> pinned-flow rows, indexed by link_row_. Rows keep their
  // capacity across calls.
  std::vector<std::vector<int32_t>> rows_;

  // Per-call flow scratch (indices into the flat arrays being solved).
  std::vector<int32_t> pinned_;
  std::vector<int32_t> fair_;
  std::vector<char> frozen_;

  Work work_;
};

}  // namespace bds

#endif  // BDS_SRC_SIMULATOR_BANDWIDTH_ALLOCATOR_H_
