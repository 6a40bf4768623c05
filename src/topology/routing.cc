#include "src/topology/routing.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace bds {

Rate WanRoute::BottleneckCapacity(const Topology& topo) const {
  Rate cap = std::numeric_limits<double>::infinity();
  for (LinkId l : links) {
    cap = std::min(cap, topo.link(l).capacity);
  }
  return cap;
}

StatusOr<WanRoute> ShortestWanRoute(const Topology& topo, DcId src, DcId dst,
                                    const std::vector<bool>* banned_links,
                                    const std::vector<bool>* banned_dcs) {
  if (src < 0 || src >= topo.num_dcs() || dst < 0 || dst >= topo.num_dcs()) {
    return InvalidArgumentError("ShortestWanRoute: no such DC");
  }
  if (src == dst) {
    return InvalidArgumentError("ShortestWanRoute: src == dst");
  }

  struct NodeState {
    int hops = std::numeric_limits<int>::max();
    Rate bottleneck = 0.0;
    LinkId via_link = kInvalidLink;
    DcId via_dc = kInvalidDc;
  };
  std::vector<NodeState> state(static_cast<size_t>(topo.num_dcs()));

  // Priority: fewer hops first, then larger bottleneck.
  struct QEntry {
    int hops;
    Rate bottleneck;
    DcId dc;
    bool operator<(const QEntry& o) const {
      if (hops != o.hops) {
        return hops > o.hops;  // min-heap on hops
      }
      return bottleneck < o.bottleneck;  // max-heap on bottleneck
    }
  };
  std::priority_queue<QEntry> queue;

  auto dc_banned = [&](DcId d) {
    return banned_dcs != nullptr && static_cast<size_t>(d) < banned_dcs->size() &&
           (*banned_dcs)[static_cast<size_t>(d)];
  };
  auto link_banned = [&](LinkId l) {
    return banned_links != nullptr && static_cast<size_t>(l) < banned_links->size() &&
           (*banned_links)[static_cast<size_t>(l)];
  };

  if (dc_banned(src) || dc_banned(dst)) {
    return NotFoundError("ShortestWanRoute: endpoint banned");
  }

  state[static_cast<size_t>(src)] = {0, std::numeric_limits<double>::infinity(), kInvalidLink,
                                     kInvalidDc};
  queue.push({0, std::numeric_limits<double>::infinity(), src});

  while (!queue.empty()) {
    QEntry top = queue.top();
    queue.pop();
    NodeState& cur = state[static_cast<size_t>(top.dc)];
    if (top.hops != cur.hops || top.bottleneck != cur.bottleneck) {
      continue;  // Stale entry.
    }
    if (top.dc == dst) {
      break;
    }
    for (LinkId lid : topo.WanLinksFrom(top.dc)) {
      if (link_banned(lid)) {
        continue;
      }
      const Link& l = topo.link(lid);
      if (dc_banned(l.dst_dc)) {
        continue;
      }
      int nhops = top.hops + 1;
      Rate nbottleneck = std::min(top.bottleneck, l.capacity);
      NodeState& nxt = state[static_cast<size_t>(l.dst_dc)];
      if (nhops < nxt.hops || (nhops == nxt.hops && nbottleneck > nxt.bottleneck)) {
        nxt.hops = nhops;
        nxt.bottleneck = nbottleneck;
        nxt.via_link = lid;
        nxt.via_dc = top.dc;
        queue.push({nhops, nbottleneck, l.dst_dc});
      }
    }
  }

  if (state[static_cast<size_t>(dst)].hops == std::numeric_limits<int>::max()) {
    return NotFoundError("ShortestWanRoute: unreachable");
  }

  WanRoute route;
  for (DcId at = dst; at != src;) {
    const NodeState& st = state[static_cast<size_t>(at)];
    route.links.push_back(st.via_link);
    route.dcs.push_back(at);
    at = st.via_dc;
  }
  route.dcs.push_back(src);
  std::reverse(route.links.begin(), route.links.end());
  std::reverse(route.dcs.begin(), route.dcs.end());
  return route;
}

namespace {

bool SameRoute(const WanRoute& a, const WanRoute& b) { return a.links == b.links; }

// Orders candidate routes: fewer hops first, then larger bottleneck.
bool BetterRoute(const Topology& topo, const WanRoute& a, const WanRoute& b) {
  if (a.hops() != b.hops()) {
    return a.hops() < b.hops();
  }
  return a.BottleneckCapacity(topo) > b.BottleneckCapacity(topo);
}

}  // namespace

std::vector<WanRoute> KShortestWanRoutes(const Topology& topo, DcId src, DcId dst, int k) {
  std::vector<WanRoute> result;
  if (k <= 0) {
    return result;
  }
  auto first = ShortestWanRoute(topo, src, dst);
  if (!first.ok()) {
    return result;
  }
  result.push_back(std::move(first).value());

  std::vector<WanRoute> candidates;
  std::vector<bool> banned_links(static_cast<size_t>(topo.num_links()), false);
  std::vector<bool> banned_dcs(static_cast<size_t>(topo.num_dcs()), false);

  while (static_cast<int>(result.size()) < k) {
    const WanRoute& prev = result.back();
    // Spur from each node of the previous route.
    for (size_t spur_idx = 0; spur_idx + 1 < prev.dcs.size(); ++spur_idx) {
      DcId spur_dc = prev.dcs[spur_idx];
      // Root: prefix of prev up to spur node.
      WanRoute root;
      root.dcs.assign(prev.dcs.begin(), prev.dcs.begin() + static_cast<long>(spur_idx) + 1);
      root.links.assign(prev.links.begin(), prev.links.begin() + static_cast<long>(spur_idx));

      std::fill(banned_links.begin(), banned_links.end(), false);
      std::fill(banned_dcs.begin(), banned_dcs.end(), false);

      // Ban the next link of every found route sharing this root.
      for (const WanRoute& r : result) {
        if (r.links.size() > spur_idx &&
            std::equal(root.links.begin(), root.links.end(), r.links.begin())) {
          banned_links[static_cast<size_t>(r.links[spur_idx])] = true;
        }
      }
      // Ban root nodes (except the spur node) to keep routes loopless.
      for (size_t i = 0; i < spur_idx; ++i) {
        banned_dcs[static_cast<size_t>(prev.dcs[i])] = true;
      }

      auto spur = ShortestWanRoute(topo, spur_dc, dst, &banned_links, &banned_dcs);
      if (!spur.ok()) {
        continue;
      }
      WanRoute total = root;
      total.links.insert(total.links.end(), spur->links.begin(), spur->links.end());
      total.dcs.insert(total.dcs.end(), spur->dcs.begin() + 1, spur->dcs.end());

      bool duplicate = false;
      for (const WanRoute& r : result) {
        if (SameRoute(r, total)) {
          duplicate = true;
          break;
        }
      }
      for (const WanRoute& r : candidates) {
        if (SameRoute(r, total)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) {
      break;
    }
    auto best = std::min_element(candidates.begin(), candidates.end(),
                                 [&](const WanRoute& a, const WanRoute& b) {
                                   return BetterRoute(topo, a, b);
                                 });
    result.push_back(*best);
    candidates.erase(best);
  }
  return result;
}

StatusOr<WanRoutingTable> WanRoutingTable::Build(const Topology& topo, int k) {
  if (k <= 0) {
    return InvalidArgumentError("WanRoutingTable: k must be positive");
  }
  WanRoutingTable table(topo.num_dcs(), k);
  for (DcId src = 0; src < topo.num_dcs(); ++src) {
    for (DcId dst = 0; dst < topo.num_dcs(); ++dst) {
      if (src == dst) {
        continue;
      }
      table.routes_[table.Index(src, dst)] = KShortestWanRoutes(topo, src, dst, k);
    }
  }
  return table;
}

const std::vector<WanRoute>& WanRoutingTable::Routes(DcId src, DcId dst) const {
  static const std::vector<WanRoute> kEmpty;
  if (src < 0 || src >= num_dcs_ || dst < 0 || dst >= num_dcs_ || src == dst) {
    return kEmpty;
  }
  return routes_[Index(src, dst)];
}

}  // namespace bds
