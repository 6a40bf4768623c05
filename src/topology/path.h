// Server-to-server transfer paths.
//
// A ServerPath is one overlay hop in BDS terms: bytes leave the source
// server's uplink, traverse a WAN route (possibly through transit DCs at the
// IP layer), and enter the destination server's downlink. Store-and-forward
// relaying composes ServerPaths across scheduling cycles into the paper's
// multi-hop overlay paths.

#ifndef BDS_SRC_TOPOLOGY_PATH_H_
#define BDS_SRC_TOPOLOGY_PATH_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace bds {

struct ServerPath {
  ServerId src = kInvalidServer;
  ServerId dst = kInvalidServer;
  // All capacity-constrained links, in order: src uplink, WAN links (empty
  // when src and dst share a DC), dst downlink.
  std::vector<LinkId> links;
  // Which of the routing table's WAN routes this path uses (0 = primary);
  // -1 for intra-DC paths.
  int wan_route_index = -1;

  // The minimum capacity along this path at build time.
  Rate BottleneckCapacity(const Topology& topo) const;

  std::string ToString(const Topology& topo) const;
};

// Builds the ServerPath from `src` to `dst` using `route_index`-th WAN route
// between their DCs (ignored when the servers share a DC).
StatusOr<ServerPath> MakeServerPath(const Topology& topo, const WanRoutingTable& routing,
                                    ServerId src, ServerId dst, int route_index = 0);

// Writes the candidate ServerPaths from `src` to `dst` into `out`: one per
// WAN route r < min(routes, max_routes) (max_routes >= 1), built from the
// routing table's route r plus the two NIC links, with wan_route_index = r.
// A same-DC pair gets one NIC-only path (index -1); src == dst or an
// unreachable DC pair gets none. `out` is resized and its inner link
// buffers are reused.
void MakeServerPaths(const Topology& topo, const WanRoutingTable& routing, ServerId src,
                     ServerId dst, int max_routes, std::vector<ServerPath>* out);

}  // namespace bds

#endif  // BDS_SRC_TOPOLOGY_PATH_H_
