// The two monitoring components of BDS's control plane (Fig 8):
//
//  * AgentMonitor — the messaging layer between the controller and per-server
//    agents. In the real system it moves HTTP POSTs; here it samples the
//    one-way/feedback delays those messages would see (Fig 11b/11c) and
//    counts messages.
//  * NetworkMonitor — reports the aggregate latency-sensitive rate per link,
//    which the BandwidthSeparator turns into residual bulk capacity (§5.2).

#ifndef BDS_SRC_CONTROL_MONITORS_H_
#define BDS_SRC_CONTROL_MONITORS_H_

#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/simulator/latency_model.h"
#include "src/topology/topology.h"
#include "src/workload/background_traffic.h"

namespace bds {

class AgentMonitor {
 public:
  AgentMonitor(const Topology* topo, DcId controller_dc, uint64_t latency_seed = 7);

  // One-way delay of a status report from an agent in `agent_dc` to the
  // controller. Recorded into the delay distribution.
  double SampleStatusDelay(DcId agent_dc) { return SampleOneWay(agent_dc, controller_dc_); }

  // Full feedback loop (Fig 11c): slowest status report in, algorithm
  // execution, slowest push out. `agent_dcs` are the DCs with active agents.
  double SampleFeedbackLoop(const std::vector<DcId>& agent_dcs, double algorithm_seconds);

  const EmpiricalDistribution& one_way_delays() const { return one_way_; }
  const EmpiricalDistribution& feedback_delays() const { return feedback_; }
  int64_t messages_sent() const { return messages_; }

 private:
  double SampleOneWay(DcId from, DcId to);

  const Topology* topo_;
  DcId controller_dc_;
  LatencyModel latency_;
  EmpiricalDistribution one_way_;
  EmpiricalDistribution feedback_;
  int64_t messages_ = 0;
};

class NetworkMonitor {
 public:
  explicit NetworkMonitor(const Topology* topo);

  // Attaches the latency-sensitive traffic model (nullptr = idle network).
  void SetTrafficModel(BackgroundTrafficModel* model) { model_ = model; }

  // Online rates for every link at time `t` (indexed by LinkId).
  std::vector<Rate> OnlineRates(SimTime t);

 private:
  const Topology* topo_;
  BackgroundTrafficModel* model_ = nullptr;
};

}  // namespace bds

#endif  // BDS_SRC_CONTROL_MONITORS_H_
