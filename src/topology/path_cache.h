// Per-(source DC, destination DC) overlay path cache.
//
// RouteBlocks builds one commodity per (src server, dst server) subtask and
// needs that pair's candidate ServerPaths every cycle. All pairs with the
// same (src DC, dst DC) share their WAN route structure — only the NIC links
// at the ends differ — so enumerating paths per server pair from scratch
// (one MakeServerPath per WAN route) repeats the same routing-table walk
// O(servers^2) times per cycle. This cache stores the DC-level skeleton (the WAN link
// sequence of each candidate route, already truncated to max_routes) once
// per DC pair; materializing a server pair's paths is then a copy plus
// patching the two NIC links on.
//
// Invalidation: cached skeletons depend only on the routing table's route
// sets — NOT on link capacities, so residual-capacity changes and degraded
// links need no invalidation (the MCF sees those through its capacity
// vector, and zero-capacity paths are dropped by the solver). Invalidate()
// must be called when the route sets themselves may have changed: the
// routing table was rebuilt, or a link fault changed which routes exist
// (the controller invalidates on every link fault event, which is cheap —
// skeletons rebuild lazily per pair).

#ifndef BDS_SRC_TOPOLOGY_PATH_CACHE_H_
#define BDS_SRC_TOPOLOGY_PATH_CACHE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/topology/path.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace bds {

class ServerPathCache {
 public:
  // `max_routes` caps the candidate WAN routes per DC pair (the controller's
  // max_wan_routes knob); the routing table may hold more.
  ServerPathCache(const Topology* topo, const WanRoutingTable* routing, int max_routes);

  // Builds the skeleton for (src_dc, dst_dc) if absent. Must be called (not
  // thread-safe) before concurrent MaterializePaths calls touch the pair.
  void EnsurePair(DcId src_dc, DcId dst_dc);

  // Writes the candidate ServerPaths from `src` to `dst` into `out`
  // (resized; inner link buffers are reused). Equivalent to one
  // MakeServerPath per WAN route, truncated to max_routes. Requires
  // EnsurePair for the servers' DC pair; read-only and safe to call
  // concurrently after it.
  void MaterializePaths(ServerId src, ServerId dst, std::vector<ServerPath>* out) const;

  // Drops every skeleton; pairs rebuild lazily. Call after the routing
  // table's route sets may have changed.
  void Invalidate();

  // Number of Invalidate() calls so far (exposed for tests and debugging).
  int64_t generation() const { return generation_; }
  // Skeleton rebuilds since construction; a steady state should stop
  // accumulating misses.
  int64_t misses() const { return misses_; }

  // Cache effectiveness counters. hits counts MaterializePaths calls served
  // from a built skeleton (relaxed atomic — the call is concurrent under the
  // controller's thread pool, and shard/thread counts must not change the
  // totals a single-threaded run would report); misses counts skeleton
  // builds; invalidations counts Invalidate() calls (== generation()). The
  // shard-parity tests assert sharded and unsharded runs observe identical
  // miss/invalidation counts on route changes.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t invalidations = 0;
  };
  Stats stats() const {
    return Stats{hits_.load(std::memory_order_relaxed), misses_, generation_};
  }

 private:
  struct DcPairEntry {
    bool built = false;
    // One element per candidate route: the WAN links in path order (empty
    // for the intra-DC pseudo-route) and the route's index in the routing
    // table (-1 intra-DC).
    std::vector<std::vector<LinkId>> wan_links;
    std::vector<int> route_index;
  };

  size_t PairIndex(DcId src_dc, DcId dst_dc) const {
    return static_cast<size_t>(src_dc) * static_cast<size_t>(topo_->num_dcs()) +
           static_cast<size_t>(dst_dc);
  }

  const Topology* topo_;
  const WanRoutingTable* routing_;
  const int max_routes_;
  std::vector<DcPairEntry> entries_;  // Dense num_dcs x num_dcs grid.
  int64_t generation_ = 0;
  int64_t misses_ = 0;
  mutable std::atomic<int64_t> hits_{0};  // Bumped in const MaterializePaths.
};

}  // namespace bds

#endif  // BDS_SRC_TOPOLOGY_PATH_CACHE_H_
