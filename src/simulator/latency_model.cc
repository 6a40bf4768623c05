#include "src/simulator/latency_model.h"

#include "src/common/status.h"

namespace bds {

LatencyModel::LatencyModel(const Topology* topo, uint64_t seed) : topo_(topo), rng_(seed) {
  BDS_CHECK(topo != nullptr);
}

double LatencyModel::SampleOneWay(DcId a, DcId b) {
  double base = (a == b) ? 0.0 : topo_->DcLatency(a, b);
  // Median multiplier 1.0: lognormal with mu = 0.
  double jitter = rng_.LogNormal(0.0, kJitterSigma);
  return base * jitter + kProcessingOverhead;
}

}  // namespace bds
