#include "src/topology/topology.h"

#include <sstream>

namespace bds {

DcId Topology::AddDatacenter(std::string name) {
  DcId id = static_cast<DcId>(dcs_.size());
  dcs_.push_back(Datacenter{id, std::move(name), {}});
  wan_out_.emplace_back();
  return id;
}

StatusOr<ServerId> Topology::AddServer(DcId dc, Rate up_capacity, Rate down_capacity) {
  if (!ValidDc(dc)) {
    return InvalidArgumentError("AddServer: no such DC");
  }
  if (up_capacity <= 0.0 || down_capacity <= 0.0) {
    return InvalidArgumentError("AddServer: capacities must be positive");
  }
  ServerId id = static_cast<ServerId>(servers_.size());

  LinkId up = static_cast<LinkId>(links_.size());
  links_.push_back(Link{up, LinkType::kServerUp, up_capacity, dc, dc, id});
  LinkId down = static_cast<LinkId>(links_.size());
  links_.push_back(Link{down, LinkType::kServerDown, down_capacity, dc, dc, id});

  servers_.push_back(Server{id, dc, up_capacity, down_capacity, up, down});
  dcs_[static_cast<size_t>(dc)].servers.push_back(id);
  return id;
}

StatusOr<LinkId> Topology::AddWanLink(DcId src_dc, DcId dst_dc, Rate capacity) {
  if (!ValidDc(src_dc) || !ValidDc(dst_dc)) {
    return InvalidArgumentError("AddWanLink: no such DC");
  }
  if (src_dc == dst_dc) {
    return InvalidArgumentError("AddWanLink: src and dst DC must differ");
  }
  if (capacity <= 0.0) {
    return InvalidArgumentError("AddWanLink: capacity must be positive");
  }
  LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{id, LinkType::kWan, capacity, src_dc, dst_dc, kInvalidServer});
  wan_out_[static_cast<size_t>(src_dc)].push_back(id);
  return id;
}

Status Topology::SetLinkCapacity(LinkId link, Rate capacity) {
  if (!ValidLink(link)) {
    return InvalidArgumentError("SetLinkCapacity: no such link");
  }
  if (capacity <= 0.0) {
    return InvalidArgumentError("SetLinkCapacity: capacity must be positive");
  }
  links_[static_cast<size_t>(link)].capacity = capacity;
  return Status::Ok();
}

uint64_t Topology::LatencyKey(DcId a, DcId b) {
  uint64_t lo = static_cast<uint64_t>(a < b ? a : b);
  uint64_t hi = static_cast<uint64_t>(a < b ? b : a);
  return (lo << 32) | hi;
}

void Topology::SetDcLatency(DcId a, DcId b, double seconds) {
  BDS_CHECK(ValidDc(a) && ValidDc(b) && seconds >= 0.0);
  dc_latency_[LatencyKey(a, b)] = seconds;
}

double Topology::DcLatency(DcId a, DcId b) const {
  BDS_CHECK(ValidDc(a) && ValidDc(b));
  auto it = dc_latency_.find(LatencyKey(a, b));
  return it == dc_latency_.end() ? 0.0 : it->second;
}

const Datacenter& Topology::dc(DcId id) const {
  BDS_CHECK(ValidDc(id));
  return dcs_[static_cast<size_t>(id)];
}

const Server& Topology::server(ServerId id) const {
  BDS_CHECK(ValidServer(id));
  return servers_[static_cast<size_t>(id)];
}

const Link& Topology::link(LinkId id) const {
  BDS_CHECK(ValidLink(id));
  return links_[static_cast<size_t>(id)];
}

const std::vector<LinkId>& Topology::WanLinksFrom(DcId dc) const {
  BDS_CHECK(ValidDc(dc));
  return wan_out_[static_cast<size_t>(dc)];
}

const std::vector<ServerId>& Topology::ServersIn(DcId dc_id) const { return dc(dc_id).servers; }

std::string Topology::Summary() const {
  int wan = 0;
  for (const Link& l : links_) {
    if (l.type == LinkType::kWan) {
      ++wan;
    }
  }
  std::ostringstream os;
  os << num_dcs() << " DCs, " << num_servers() << " servers, " << wan << " WAN links";
  return os.str();
}

}  // namespace bds
