#include "src/scheduler/bandwidth_separator.h"

#include <algorithm>

#include "src/common/status.h"

namespace bds {

BandwidthSeparator::BandwidthSeparator(const Topology* topo, Options options)
    : topo_(topo), options_(options) {
  BDS_CHECK(topo != nullptr);
  BDS_CHECK(options_.safety_threshold > 0.0 && options_.safety_threshold <= 1.0);
}

std::vector<Rate> BandwidthSeparator::ResidualCapacities(
    const std::vector<Rate>& online_rates, const std::vector<double>& fault_factors) const {
  std::vector<Rate> residual(static_cast<size_t>(topo_->num_links()), 0.0);
  for (LinkId l = 0; l < topo_->num_links(); ++l) {
    const Link& link = topo_->link(l);
    size_t i = static_cast<size_t>(l);
    Rate online = i < online_rates.size() ? online_rates[i] : 0.0;
    double factor = i < fault_factors.size() ? fault_factors[i] : 1.0;
    Rate usable = link.capacity * factor;
    if (link.type == LinkType::kWan) {
      Rate budget = usable * options_.safety_threshold - online;
      if (options_.bulk_rate_cap > 0.0) {
        budget = std::min(budget, options_.bulk_rate_cap);
      }
      residual[i] = std::max(0.0, budget);
    } else {
      residual[i] = usable;
    }
  }
  return residual;
}

}  // namespace bds
