// Latency-sensitive background traffic model.
//
// The paper's Fig 6 shows a diurnal pattern of online traffic on inter-DC
// links and a bulk transfer that pushed total utilization past the 80 %
// safety threshold, inflating online latency ~30x. We model per-link online
// traffic as a diurnal sinusoid plus noise and occasional bursts; BDS's
// NetworkMonitor reads it to compute the residual available to bulk data
// (§5.2), and the interference bench reproduces Fig 6/10.

#ifndef BDS_SRC_WORKLOAD_BACKGROUND_TRAFFIC_H_
#define BDS_SRC_WORKLOAD_BACKGROUND_TRAFFIC_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/topology/topology.h"

namespace bds {

class BackgroundTrafficModel {
 public:
  struct Options {
    // Mean online utilization of a WAN link (fraction of capacity).
    double mean_utilization = 0.35;
    // Peak-to-mean diurnal swing (fraction of capacity).
    double diurnal_amplitude = 0.15;
    // Stddev of per-sample noise (fraction of capacity).
    double noise = 0.03;
    uint64_t seed = 99;
  };

  BackgroundTrafficModel(const Topology* topo, Options options);
  explicit BackgroundTrafficModel(const Topology* topo) : BackgroundTrafficModel(topo, Options{}) {}

  // Online (latency-sensitive) rate on `link` at time `t`. Zero for server
  // NIC links — online traffic contends on the WAN.
  Rate RateAt(LinkId link, SimTime t);

  // Models the latency inflation online flows experience at a given total
  // link utilization: ~1x below the safety threshold, super-linear beyond
  // (matching the paper's reported 30x at sustained ~95 %+).
  static double LatencyInflation(double utilization, double safety_threshold = 0.8);

 private:
  const Topology* topo_;
  Options options_;
  std::vector<double> phase_;      // Per-link diurnal phase.
  std::vector<double> amplitude_;  // Per-link amplitude scale.
  Rng noise_rng_;
};

}  // namespace bds

#endif  // BDS_SRC_WORKLOAD_BACKGROUND_TRAFFIC_H_
