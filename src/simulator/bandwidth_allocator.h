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
// Phase 1 makes one pass over the flows that fills, for every link, its
// first-round load (the sum of the pins crossing it, in ascending flow
// order) and its row (the pinned flows crossing it, ascending), then collects
// the links over capacity. Every scale-down round then re-sums, row by row,
// the links of that set that the scaled flows cross, which gives the bits of
// a full recompute; a link leaves the set once it fits. It finds them in a
// per-row list of the distinct links the row's members cross, listed when
// the row is first scaled and again only after a member leaves it, so a row
// scaled in many re-solves walks its members' paths once, not every time.
// Loads never rise within a call (rates only shrink, and rounded addition is
// monotone), so a link outside the set stays within capacity and needs no
// work. The worst link is the lexicographic minimum of (factor, link id),
// and phase 2 only takes minima over links and updates each link on its
// own, so neither phase depends on the order in which the component's links
// were first touched: the solver never sorts them. tests/oracles.cc keeps the
// full-recompute, sorted-link phase 1 as the bitwise reference
// (AllocatePinnedReference).
//
// The rows and first-round loads outlive the call. After an all-pinned call
// the simulator may drop members (Depart) and re-solve the rest
// (ResolveRetained) on the same flat arrays, with no pass over the members'
// paths: a departure leaves a tombstone in its links' rows and marks their
// loads stale. A stale load still bounds the live members' load from above
// (members only leave, and dropping a non-negative term from a left-to-right
// sum cannot raise it), so a re-solve re-sums a stale row, dropping its
// tombstones, only when that bound does not prove the link within its
// current capacity. The links over capacity then run the same rounds, capped
// at the number of links that still carry a live member, exactly as a fresh
// call on the live members would count them.
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

  // Re-solving the last AllocateSubset call's flow set after some of its
  // members left. That call must have been all-pinned, and no other call may
  // come between; the caller passes the same flat arrays again. Depart
  // tombstones member fi, at most once per member. ResolveRetained writes
  // into rate[fi], for every member not departed, the bits AllocateSubset
  // returns for those members alone (in ascending order, under the current
  // `capacities`); departed members' entries are overwritten with their pins.
  void Depart(int32_t fi, const int32_t* offsets, const LinkId* links);
  void ResolveRetained(const std::vector<Rate>& capacities, size_t n,
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
  // Adds `l` to over_, with its first-round load, when that load is over
  // residual_[l].
  void CollectIfOver(size_t l);
  // Phase 1's scale-down rounds over over_, at most `round_cap` of them (see
  // the file comment); empties over_ and clears its marks.
  void ScaleDown(size_t round_cap, const int32_t* offsets, const LinkId* links, Rate* rate);
  // Fills row_links_[row] with the distinct links its members' paths cross,
  // in the order a walk over those paths first meets them. The row must
  // hold no departed member.
  void BuildRowLinks(size_t row, const int32_t* offsets, const LinkId* links);

  // Generation-stamped per-link state (valid when link_gen_[l] == gen_).
  uint64_t gen_ = 0;
  std::vector<uint64_t> link_gen_;
  std::vector<Rate> residual_;
  std::vector<Rate> load_;      // Phase-1 working loads, for links in over_.
  std::vector<Rate> pin_load_;  // First-round load; an upper bound while stale.
  std::vector<char> stale_;     // A member on the link departed since its sum.
  std::vector<int32_t> row_live_;  // Members on the link that have not departed.
  std::vector<int> active_count_;
  std::vector<char> link_saturated_;
  std::vector<size_t> used_links_;  // In first-touch order.

  // Phase 1's links still over capacity. over_mark_ is 1 while a link is in
  // over_ and 2 while it also waits in resum_; it is all zero between calls.
  std::vector<size_t> over_;
  std::vector<char> over_mark_;
  std::vector<int32_t> link_row_;  // Link -> its row: its index in used_links_.
  std::vector<size_t> resum_;      // Links to re-sum after a scale-down.

  // Link -> pinned-flow rows in ascending flow order, indexed by link_row_;
  // a departed member stays in its rows until a re-sum drops it. Rows keep
  // their capacity across calls.
  std::vector<std::vector<int32_t>> rows_;
  std::vector<char> departed_;  // Per flow of the last AllocateSubset call.
  // Per row, the distinct links its members cross (BuildRowLinks), built
  // the first time the row is scaled; empty until then. A departure empties
  // the lists of the rows it leaves, whose members no longer reach all of
  // those links, so each is rebuilt before its next scaling.
  std::vector<std::vector<int32_t>> row_links_;
  std::vector<uint64_t> link_seen_;  // BuildRowLinks' dedup stamp per link.
  uint64_t seen_gen_ = 0;

  // Per-call flow scratch (indices into the flat arrays being solved).
  std::vector<int32_t> pinned_;
  std::vector<int32_t> fair_;
  std::vector<char> frozen_;

  Work work_;
};

}  // namespace bds

#endif  // BDS_SRC_SIMULATOR_BANDWIDTH_ALLOCATOR_H_
