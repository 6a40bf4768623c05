#include "src/topology/path.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace bds {

Rate ServerPath::BottleneckCapacity(const Topology& topo) const {
  Rate cap = std::numeric_limits<double>::infinity();
  for (LinkId l : links) {
    cap = std::min(cap, topo.link(l).capacity);
  }
  return cap;
}

std::string ServerPath::ToString(const Topology& topo) const {
  std::ostringstream os;
  os << "s" << src << "(dc" << topo.server(src).dc << ")";
  for (LinkId l : links) {
    const Link& link = topo.link(l);
    if (link.type == LinkType::kWan) {
      os << " -> dc" << link.dst_dc;
    }
  }
  os << " -> s" << dst;
  return os.str();
}

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

}  // namespace bds
