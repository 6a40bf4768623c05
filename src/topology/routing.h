// WAN routing between datacenters.
//
// The IP layer gives each DC pair a primary route (shortest path over WAN
// links) plus alternates (Yen's k-shortest loopless paths). BDS's Type I
// overlay paths — different sequences of DCs — come from this enumeration;
// Type II paths come from choosing different relay servers on the same DC
// sequence across scheduling cycles.

#ifndef BDS_SRC_TOPOLOGY_ROUTING_H_
#define BDS_SRC_TOPOLOGY_ROUTING_H_

#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/topology/topology.h"

namespace bds {

// A loopless DC-level route: the WAN links traversed, in order, plus the DC
// sequence (dcs.size() == links.size() + 1).
struct WanRoute {
  std::vector<LinkId> links;
  std::vector<DcId> dcs;

  int hops() const { return static_cast<int>(links.size()); }

  // The smallest WAN-link capacity along the route.
  Rate BottleneckCapacity(const Topology& topo) const;
};

class WanRoutingTable {
 public:
  // Enumerates up to `k` shortest routes (by hop count, capacity as
  // tie-break: higher bottleneck preferred) for every ordered DC pair.
  static StatusOr<WanRoutingTable> Build(const Topology& topo, int k);

  // Routes for the ordered pair; empty if unreachable. routes[0] is the
  // primary (IP) route.
  const std::vector<WanRoute>& Routes(DcId src, DcId dst) const;

  bool Reachable(DcId src, DcId dst) const { return !Routes(src, dst).empty(); }

  int max_routes_per_pair() const { return k_; }

 private:
  WanRoutingTable(int num_dcs, int k) : num_dcs_(num_dcs), k_(k) {
    routes_.resize(static_cast<size_t>(num_dcs) * num_dcs);
  }

  size_t Index(DcId src, DcId dst) const {
    return static_cast<size_t>(src) * num_dcs_ + static_cast<size_t>(dst);
  }

  int num_dcs_;
  int k_;
  std::vector<std::vector<WanRoute>> routes_;
};

// Dijkstra over WAN links with unit hop cost; ties broken toward the route
// with the larger bottleneck capacity. `banned_links` / `banned_dcs` support
// Yen's spur computations and failure experiments. Returns an empty route's
// status error if `dst` is unreachable.
StatusOr<WanRoute> ShortestWanRoute(const Topology& topo, DcId src, DcId dst,
                                    const std::vector<bool>* banned_links = nullptr,
                                    const std::vector<bool>* banned_dcs = nullptr);

// Yen's algorithm: up to k shortest loopless routes.
std::vector<WanRoute> KShortestWanRoutes(const Topology& topo, DcId src, DcId dst, int k);

}  // namespace bds

#endif  // BDS_SRC_TOPOLOGY_ROUTING_H_
