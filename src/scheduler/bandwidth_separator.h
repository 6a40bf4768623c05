// Dynamic bandwidth separation (§5.2).
//
// The Network Monitor reports the aggregate rate of latency-sensitive
// traffic per link; the separator computes the residual each link can give
// to bulk multicast while keeping total utilization at or below the safety
// threshold (80 % by default).

#ifndef BDS_SRC_SCHEDULER_BANDWIDTH_SEPARATOR_H_
#define BDS_SRC_SCHEDULER_BANDWIDTH_SEPARATOR_H_

#include <vector>

#include "src/common/types.h"
#include "src/topology/topology.h"

namespace bds {

class BandwidthSeparator {
 public:
  struct Options {
    // Max total utilization on any inter-DC link (bulk + online).
    double safety_threshold = 0.8;
    // Optional hard cap on bulk rate per WAN link (Fig 10 sets 10 GB/s);
    // <= 0 disables.
    Rate bulk_rate_cap = 0.0;
  };

  BandwidthSeparator(const Topology* topo, Options options);
  explicit BandwidthSeparator(const Topology* topo) : BandwidthSeparator(topo, Options{}) {}

  // Residual bulk capacity per link, given the observed online rates and
  // per-link fault factors (both indexed by LinkId; missing/short vectors
  // mean zero online traffic and healthy links). Server NIC links are not
  // subject to the safety threshold (they carry no latency-sensitive WAN
  // traffic); WAN links get
  //   max(0, capacity * factor * threshold - online_rate), capped by
  //   bulk_rate_cap.
  // Fault factors (0 = down, 1 = healthy) come from
  // NetworkSimulator::link_fault_factors: the threshold applies to the
  // *usable* capacity, so the LP routes around dead and degraded links.
  std::vector<Rate> ResidualCapacities(const std::vector<Rate>& online_rates,
                                       const std::vector<double>& fault_factors) const;

  const Options& options() const { return options_; }

 private:
  const Topology* topo_;
  Options options_;
};

}  // namespace bds

#endif  // BDS_SRC_SCHEDULER_BANDWIDTH_SEPARATOR_H_
