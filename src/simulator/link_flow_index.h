// Link -> flow incidence index for the simulator's per-event hot path.
//
// Per link, a contiguous array of (slot, hop) entries — CSR-like rows that
// support O(1) swap-erase removal because every flow records its position in
// each row (FlowSoA::incidence_pos, stored in the same shared arena as the
// path links). The index answers, without scanning the full active-flow set,
// which flows belong to the connected component of the flow-link incidence
// graph touched by a change (incremental reallocation, and the component-by-
// component layout of the locality reorder), and whether a link still
// carries any flow (snapping its aggregate rate to zero when it drains).
//
// Component gathering uses generation stamps (per link here, per flow in
// FlowSoA::visit_stamp), so an epoch costs O(component) with no global
// clears. Entries are 8-byte PODs referring into the SoA pool, so a row walk
// is a contiguous scan with one indexed load per entry — no pointer chasing.

#ifndef BDS_SRC_SIMULATOR_LINK_FLOW_INDEX_H_
#define BDS_SRC_SIMULATOR_LINK_FLOW_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/simulator/flow_soa.h"

namespace bds {

struct LinkFlowEntry {
  int32_t slot = 0;  // FlowSoA slot of the flow crossing this link.
  int32_t hop = 0;   // Index into the flow's path identifying this link.
};

class LinkFlowIndex {
 public:
  void Reset(int num_links);

  // Registers the flow in `slot` on every link of its path; fills the slot's
  // incidence_pos row. The path must not repeat a link (NetworkSimulator
  // rejects those).
  void Add(FlowSoA& soa, int32_t slot);

  // Unregisters the flow in `slot` from every link of its path (swap-erase;
  // the moved entry's flow has its incidence_pos patched).
  void Remove(FlowSoA& soa, int32_t slot);

  const std::vector<LinkFlowEntry>& at(LinkId link) const {
    return by_link_[static_cast<size_t>(link)];
  }

  // Starts a new gather generation: link/flow visit stamps from previous
  // epochs become invalid.
  void BeginEpoch() { ++gen_; }

  // Appends every flow slot in the connected component reachable from `seed`
  // to `out` (BFS over shared links). Returns false without touching `out`
  // when the seed was already gathered this epoch or carries no flows. Slots
  // are appended in BFS order — callers wanting a canonical order must sort.
  bool GatherFrom(LinkId seed, FlowSoA& soa, std::vector<int32_t>* out);

  // Rewrites every row entry's slot through old_to_new after the pool was
  // reordered (FlowSoA::CompactAndReorder). Row order and hop/position
  // fields are untouched — only the slot numbers change.
  void RemapSlots(const std::vector<int32_t>& old_to_new);

  // Full-scan invariant check: every row entry's (slot, hop) must point back
  // at this link, and the slot's incidence_pos must point back at the entry.
  // O(total incidence); meant for tests and the debug-build hooks below.
  void CheckConsistency(const FlowSoA& soa) const;

 private:
  std::vector<std::vector<LinkFlowEntry>> by_link_;
  std::vector<uint64_t> link_stamp_;
  uint64_t gen_ = 0;
  std::vector<LinkId> queue_;  // BFS scratch.
};

}  // namespace bds

#endif  // BDS_SRC_SIMULATOR_LINK_FLOW_INDEX_H_
