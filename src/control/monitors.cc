#include "src/control/monitors.h"

#include <algorithm>

#include "src/common/status.h"

namespace bds {

AgentMonitor::AgentMonitor(const Topology* topo, DcId controller_dc, uint64_t latency_seed)
    : topo_(topo), controller_dc_(controller_dc), latency_(topo, latency_seed) {
  BDS_CHECK(topo != nullptr);
  BDS_CHECK(controller_dc >= 0 && controller_dc < topo->num_dcs());
}

double AgentMonitor::SampleOneWay(DcId from, DcId to) {
  ++messages_;
  double d = latency_.SampleOneWay(from, to);
  one_way_.Add(d);
  return d;
}

double AgentMonitor::SampleFeedbackLoop(const std::vector<DcId>& agent_dcs,
                                        double algorithm_seconds) {
  // The cycle cannot proceed until the slowest status arrives, and the last
  // agent acts once the slowest push lands.
  double worst_in = 0.0;
  double worst_out = 0.0;
  for (DcId d : agent_dcs) {
    worst_in = std::max(worst_in, SampleStatusDelay(d));
    worst_out = std::max(worst_out, SampleOneWay(controller_dc_, d));  // Decision push.
  }
  double loop = worst_in + algorithm_seconds + worst_out;
  feedback_.Add(loop);
  return loop;
}

NetworkMonitor::NetworkMonitor(const Topology* topo) : topo_(topo) { BDS_CHECK(topo != nullptr); }

std::vector<Rate> NetworkMonitor::OnlineRates(SimTime t) {
  std::vector<Rate> rates(static_cast<size_t>(topo_->num_links()), 0.0);
  if (model_ == nullptr) {
    return rates;
  }
  for (LinkId l = 0; l < topo_->num_links(); ++l) {
    rates[static_cast<size_t>(l)] = model_->RateAt(l, t);
  }
  return rates;
}

}  // namespace bds
