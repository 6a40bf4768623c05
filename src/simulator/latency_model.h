// Control-plane message latency.
//
// Figure 11b of the paper measured 5000 controller<->agent requests: 90 % of
// one-way delays below 50 ms, mean about 25 ms. We model the one-way delay
// between two DCs as the topology's base latency plus lognormal jitter, which
// reproduces that heavy-ish right tail.

#ifndef BDS_SRC_SIMULATOR_LATENCY_MODEL_H_
#define BDS_SRC_SIMULATOR_LATENCY_MODEL_H_

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/topology/topology.h"

namespace bds {

class LatencyModel {
 public:
  // Multiplicative lognormal jitter: exp(N(mu, sigma)). mu is chosen so the
  // median multiplier is ~1.
  static constexpr double kJitterSigma = 0.35;
  // Additive processing overhead per message (serialization, HTTP POST).
  static constexpr double kProcessingOverhead = 0.002;  // 2 ms

  explicit LatencyModel(const Topology* topo, uint64_t seed = 7);

  // One-way delay for a message between DCs `a` and `b` (seconds). Delays
  // within the same DC are just the processing overhead plus small jitter.
  double SampleOneWay(DcId a, DcId b);

 private:
  const Topology* topo_;
  Rng rng_;
};

}  // namespace bds

#endif  // BDS_SRC_SIMULATOR_LATENCY_MODEL_H_
