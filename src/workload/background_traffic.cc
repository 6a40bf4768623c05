#include "src/workload/background_traffic.h"

#include <algorithm>
#include <cmath>

#include "src/common/status.h"

namespace bds {

namespace {

constexpr double kDiurnalPeriod = 86400.0;  // One day.

}  // namespace

BackgroundTrafficModel::BackgroundTrafficModel(const Topology* topo, Options options)
    : topo_(topo), options_(options), noise_rng_(options.seed ^ 0xABCDEF) {
  BDS_CHECK(topo != nullptr);
  Rng rng(options.seed);
  phase_.reserve(static_cast<size_t>(topo->num_links()));
  amplitude_.reserve(static_cast<size_t>(topo->num_links()));
  for (int l = 0; l < topo->num_links(); ++l) {
    phase_.push_back(rng.Uniform(0.0, kDiurnalPeriod));
    amplitude_.push_back(rng.Uniform(0.7, 1.3));
  }
}

Rate BackgroundTrafficModel::RateAt(LinkId link, SimTime t) {
  BDS_CHECK(link >= 0 && link < topo_->num_links());
  const Link& l = topo_->link(link);
  if (l.type != LinkType::kWan) {
    return 0.0;
  }
  double diurnal =
      options_.diurnal_amplitude * amplitude_[static_cast<size_t>(link)] *
      std::sin(2.0 * M_PI * (t + phase_[static_cast<size_t>(link)]) / kDiurnalPeriod);
  double noise = noise_rng_.Normal(0.0, options_.noise);
  double util = std::clamp(options_.mean_utilization + diurnal + noise, 0.0, 0.98);
  return util * l.capacity;
}

double BackgroundTrafficModel::LatencyInflation(double utilization, double safety_threshold) {
  if (utilization <= safety_threshold) {
    return 1.0;
  }
  // Queueing-style blow-up: inflation ~ (1 - threshold) / (1 - utilization),
  // clamped. At u = 0.8 -> 1x, u = 0.95 -> 4x, u = 0.993 -> ~30x.
  double u = std::min(utilization, 0.999);
  return std::min(200.0, (1.0 - safety_threshold) / (1.0 - u));
}

}  // namespace bds
