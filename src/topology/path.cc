#include "src/topology/path.h"

#include <algorithm>

namespace bds {

StatusOr<ServerPath> MakeServerPath(const Topology& topo, const WanRoutingTable& routing,
                                    ServerId src, ServerId dst, int route_index) {
  if (src < 0 || src >= topo.num_servers() || dst < 0 || dst >= topo.num_servers()) {
    return InvalidArgumentError("MakeServerPath: no such server");
  }
  if (src == dst) {
    return InvalidArgumentError("MakeServerPath: src == dst");
  }
  const Server& s = topo.server(src);
  const Server& d = topo.server(dst);

  ServerPath path;
  path.src = src;
  path.dst = dst;
  path.links.push_back(s.uplink);
  if (s.dc != d.dc) {
    const auto& routes = routing.Routes(s.dc, d.dc);
    if (route_index < 0 || route_index >= static_cast<int>(routes.size())) {
      return NotFoundError("MakeServerPath: no such WAN route");
    }
    const WanRoute& route = routes[static_cast<size_t>(route_index)];
    path.links.insert(path.links.end(), route.links.begin(), route.links.end());
    path.wan_route_index = route_index;
  }
  path.links.push_back(d.downlink);
  return path;
}

void MakeServerPaths(const Topology& topo, const WanRoutingTable& routing, ServerId src,
                     ServerId dst, int max_routes, std::vector<ServerPath>* out) {
  BDS_CHECK(max_routes >= 1);
  if (src == dst) {
    out->clear();
    return;
  }
  const Server& s = topo.server(src);
  const Server& d = topo.server(dst);
  const bool intra_dc = s.dc == d.dc;
  const std::vector<WanRoute>& routes = routing.Routes(s.dc, d.dc);  // Empty when intra-DC.
  const size_t n = intra_dc ? 1 : routes.size();
  out->resize(std::min(n, static_cast<size_t>(max_routes)));
  for (size_t r = 0; r < out->size(); ++r) {
    ServerPath& path = (*out)[r];
    path.src = src;
    path.dst = dst;
    path.links.clear();
    path.links.push_back(s.uplink);
    if (intra_dc) {
      path.wan_route_index = -1;
    } else {
      const std::vector<LinkId>& wan = routes[r].links;
      path.links.insert(path.links.end(), wan.begin(), wan.end());
      path.wan_route_index = static_cast<int>(r);
    }
    path.links.push_back(d.downlink);
  }
}

}  // namespace bds
