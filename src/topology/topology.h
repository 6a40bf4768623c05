// Static description of the geo-distributed infrastructure BDS runs on:
// datacenters, servers (overlay nodes) with NIC capacities, and directed WAN
// links between DC pairs. The intra-DC fabric is modelled as non-blocking —
// the paper's transfers are bottlenecked at server NICs and WAN links (§2.3).

#ifndef BDS_SRC_TOPOLOGY_TOPOLOGY_H_
#define BDS_SRC_TOPOLOGY_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace bds {

enum class LinkType {
  kServerUp,    // Server NIC, egress.
  kServerDown,  // Server NIC, ingress.
  kWan,         // Directed inter-DC WAN link.
};

struct Link {
  LinkId id = kInvalidLink;
  LinkType type = LinkType::kWan;
  Rate capacity = 0.0;

  // kWan: endpoints are DCs. kServerUp/kServerDown: `server` owns the NIC and
  // src_dc == dst_dc == that server's DC.
  DcId src_dc = kInvalidDc;
  DcId dst_dc = kInvalidDc;
  ServerId server = kInvalidServer;
};

struct Server {
  ServerId id = kInvalidServer;
  DcId dc = kInvalidDc;
  Rate up_capacity = 0.0;
  Rate down_capacity = 0.0;
  LinkId uplink = kInvalidLink;
  LinkId downlink = kInvalidLink;
};

struct Datacenter {
  DcId id = kInvalidDc;
  std::string name;
  std::vector<ServerId> servers;
};

class Topology {
 public:
  Topology() = default;

  DcId AddDatacenter(std::string name);

  // Adds a server to `dc` with the given NIC capacities; creates its up/down
  // links. Capacities must be positive.
  StatusOr<ServerId> AddServer(DcId dc, Rate up_capacity, Rate down_capacity);

  // Adds a directed WAN link. A pair may have multiple parallel links.
  StatusOr<LinkId> AddWanLink(DcId src_dc, DcId dst_dc, Rate capacity);

  // Replaces the capacity of an existing link (used by dynamic experiments).
  Status SetLinkCapacity(LinkId link, Rate capacity);

  // Symmetric DC-to-DC one-way control latency in seconds (defaults to 0).
  void SetDcLatency(DcId a, DcId b, double seconds);
  double DcLatency(DcId a, DcId b) const;

  int num_dcs() const { return static_cast<int>(dcs_.size()); }
  int num_servers() const { return static_cast<int>(servers_.size()); }
  int num_links() const { return static_cast<int>(links_.size()); }

  const Datacenter& dc(DcId id) const;
  const Server& server(ServerId id) const;
  const Link& link(LinkId id) const;

  const std::vector<Datacenter>& dcs() const { return dcs_; }
  const std::vector<Server>& servers() const { return servers_; }
  const std::vector<Link>& links() const { return links_; }

  // All WAN links leaving `dc`, for graph traversals.
  const std::vector<LinkId>& WanLinksFrom(DcId dc) const;

  // The servers of `dc` (convenience passthrough).
  const std::vector<ServerId>& ServersIn(DcId dc) const;

  // Human-readable one-line summary, e.g. "10 DCs, 670 servers, 90 WAN links".
  std::string Summary() const;

 private:
  bool ValidDc(DcId id) const { return id >= 0 && id < num_dcs(); }
  bool ValidServer(ServerId id) const { return id >= 0 && id < num_servers(); }
  bool ValidLink(LinkId id) const { return id >= 0 && id < num_links(); }
  static uint64_t LatencyKey(DcId a, DcId b);

  std::vector<Datacenter> dcs_;
  std::vector<Server> servers_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> wan_out_;  // Per-DC outgoing WAN links.
  // Sparse symmetric latency store keyed by the canonical (lo, hi) DC pair;
  // absent pairs read as 0. A dense num_dcs^2 matrix would cost O(N^2) memory
  // and O(N^2) rebuild per AddDatacenter — fleet-scale benches build 10^4 DCs.
  std::unordered_map<uint64_t, double> dc_latency_;
};

}  // namespace bds

#endif  // BDS_SRC_TOPOLOGY_TOPOLOGY_H_
