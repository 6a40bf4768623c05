// Dense struct-of-arrays storage for the simulator's active flows.
//
// The simulator's per-event hot loops (component gather, max-min waterfill,
// completion-heap validation) used to chase a `unique_ptr<Flow>` per flow,
// each owning two heap vectors (`links`, `incidence_pos`) — three dependent
// cache misses per flow touched. At 10^5-10^6 concurrent flows that pointer
// graph *is* the cost. FlowSoA replaces it with parallel arrays indexed by a
// dense **slot**:
//
//  * hot scalars (`remaining`, `anchor_time`, `current_rate`, `rate_epoch`)
//    are one contiguous array each, so a component solve streams them;
//  * per-slot identity (`id`, path location, `pinned_rate`, BFS visit stamp)
//    packs into one 32-byte `FlowMeta` record — visiting a scattered slot
//    costs one cache line;
//  * every flow's path lives in one shared CSR-style arena
//    (`path_links` + the parallel `incidence_pos`), addressed by
//    `meta[slot].path` — iterating a path is a contiguous scan, not a
//    heap-vector dereference;
//  * slots are recycled through a free list (LIFO, deterministic), so churn
//    does not allocate: a reused slot whose new path fits the old arena row
//    writes in place, and `MaybeCompactArena` reclaims leaked rows when the
//    arena's dead space exceeds its live footprint.
//
// `rate_epoch` is monotonic per slot and is NOT reset on reuse: a stale
// completion-heap entry can therefore never collide with a later occupant of
// the same slot (see NetworkSimulator's heap validation).
//
// FlowSoA stores no per-flow ownership or identity logic beyond the id
// column; NetworkSimulator owns id assignment and the id -> slot map.

#ifndef BDS_SRC_SIMULATOR_FLOW_SOA_H_
#define BDS_SRC_SIMULATOR_FLOW_SOA_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/types.h"

namespace bds {

// A slot's row in the shared CSR arena. begin and len live in one 8-byte
// record so locating a scattered slot's path costs one cache line, not two.
struct PathRef {
  int32_t begin = 0;
  int32_t len = 0;
};

// Per-slot identity block: every field the component gather and BFS read
// besides the four rate-state columns. 32 bytes — two records per cache
// line, never straddling — so visiting a scattered slot (stamp check, path
// lookup, id read, pinned classification) costs ONE line instead of the four
// it cost as separate columns.
struct FlowMeta {
  FlowId id = kInvalidFlow;        // kInvalidFlow while the slot is free.
  PathRef path;                    // This slot's row in the arena.
  Rate pinned_rate = 0.0;          // 0 = fair share.
  uint64_t visit_stamp = 0;        // Component-gather generation marker.
};

class FlowSoA {
 public:
  // Allocates a slot (reusing a freed one when available) and copies `path`
  // into the CSR arena. The slot's hot scalars are zero-initialized except
  // `rate_epoch`, which keeps counting from the previous occupant.
  int32_t Allocate(FlowId flow_id, const LinkId* path, int32_t len);

  // Releases `slot` back to the free list. The arena row is kept attached to
  // the slot for reuse; rows orphaned by reuse with a longer path are
  // reclaimed by MaybeCompactArena.
  void Free(int32_t slot);

  // Rebuilds the arena without dead rows once the dead space exceeds the
  // live footprint (amortized O(live links); does not move slots).
  void MaybeCompactArena();

  // Rewrites the pool so that old slot order[i] becomes new slot i, dropping
  // free slots and dead arena rows (the pool shrinks to n == num_live() slots).
  // Callers pass a locality-sorted order so that flows sharing links end up
  // in adjacent slots, turning the component gather's strided reads into
  // sequential ones. Fills old_to_new (sized to the old slot count, -1 for
  // freed slots) so the owner can remap every structure that stores slots.
  // rate_epoch moves with its flow, so completion-heap entries stay valid
  // once their slot field is remapped through old_to_new.
  void CompactAndReorder(const int32_t* order, int32_t n, std::vector<int32_t>* old_to_new);

  int32_t num_live() const { return num_live_; }
  bool live(int32_t slot) const { return live_[static_cast<size_t>(slot)] != 0; }

  const LinkId* links(int32_t slot) const {
    return path_links.data() + meta[static_cast<size_t>(slot)].path.begin;
  }
  int32_t num_links(int32_t slot) const {
    return meta[static_cast<size_t>(slot)].path.len;
  }
  int32_t* inc_pos(int32_t slot) {
    return incidence_pos.data() + meta[static_cast<size_t>(slot)].path.begin;
  }
  const int32_t* inc_pos(int32_t slot) const {
    return incidence_pos.data() + meta[static_cast<size_t>(slot)].path.begin;
  }

  // --- Parallel arrays, indexed by slot. ---
  // Hot: touched by every reallocation of a component containing the slot.
  std::vector<Bytes> remaining;      // As of anchor_time (lazy progress).
  std::vector<SimTime> anchor_time;
  std::vector<Rate> current_rate;
  std::vector<uint32_t> rate_epoch;  // Monotonic per slot, survives reuse.
  std::vector<uint32_t> heap_epoch;  // rate_epoch at last completion-heap
                                     // push; == rate_epoch means a valid
                                     // entry is already in the heap.
  std::vector<FlowMeta> meta;  // id / path row / pinned rate / visit stamp.
  // Cold: read at start/completion/query only.
  std::vector<Bytes> total_bytes;
  std::vector<SimTime> start_time;
  std::vector<int64_t> tag;
  std::vector<int64_t> tag2;
  // Rate last handed to the rate observer (0 until the first report). Only
  // touched when an observer is installed; lets the changepoint test be a
  // band check against precomputed semantics (see ReallocateComponent)
  // instead of per-update fabs/max arithmetic, and makes slow drift
  // reportable where a compare-to-previous test would sleep through it.
  std::vector<Rate> reported_rate;

  // --- Shared CSR arena. incidence_pos[i] is the position of path_links[i]
  // in LinkFlowIndex's per-link row (kept in sync by its swap-erase). ---
  std::vector<LinkId> path_links;
  std::vector<int32_t> incidence_pos;

 private:
  std::vector<int32_t> path_cap_;  // Arena row capacity owned by each slot.
  std::vector<char> live_;
  std::vector<int32_t> free_slots_;  // LIFO; deterministic reuse order.
  int32_t num_live_ = 0;
  int64_t arena_dead_ = 0;  // Arena elements owned by no slot (orphaned rows).
};

// Every SoA column must be memmovable for the arena/slot recycling (and for
// the vectorizable scans the layout exists to enable): enforce it at compile
// time so a future field cannot silently de-optimize the pool.
static_assert(std::is_trivially_copyable_v<Bytes> && std::is_trivially_destructible_v<Bytes>);
static_assert(std::is_trivially_copyable_v<SimTime> &&
              std::is_trivially_destructible_v<SimTime>);
static_assert(std::is_trivially_copyable_v<Rate> && std::is_trivially_destructible_v<Rate>);
static_assert(std::is_trivially_copyable_v<FlowId> &&
              std::is_trivially_destructible_v<FlowId>);
static_assert(std::is_trivially_copyable_v<LinkId> &&
              std::is_trivially_destructible_v<LinkId>);
static_assert(std::is_trivially_copyable_v<uint32_t> && std::is_trivially_copyable_v<int32_t> &&
              std::is_trivially_copyable_v<int64_t> && std::is_trivially_copyable_v<uint64_t>);
static_assert(std::is_trivially_copyable_v<PathRef> &&
              std::is_trivially_destructible_v<PathRef> && sizeof(PathRef) == 8);
static_assert(std::is_trivially_copyable_v<FlowMeta> &&
              std::is_trivially_destructible_v<FlowMeta> && sizeof(FlowMeta) == 32,
              "FlowMeta must stay two-per-cache-line; a field that pads it "
              "past 32 bytes makes every scattered slot visit straddle lines");

}  // namespace bds

#endif  // BDS_SRC_SIMULATOR_FLOW_SOA_H_
