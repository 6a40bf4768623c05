// Akamai-style 3-layer overlay multicast [9] (§6.1.1, §7).
//
// Layer 1: the origin DC's servers. Layer 2: a fixed set of reflector
// servers in each destination DC. Layer 3: the destination (edge) servers.
// Blocks travel strictly in sequence (the design target is live streaming),
// source -> reflector -> edge; the rigid layering and sequential order are
// exactly what BDS's finer-grained, order-free allocation beats (§7).

#ifndef BDS_SRC_BASELINES_AKAMAI_H_
#define BDS_SRC_BASELINES_AKAMAI_H_

#include <string>

#include "src/baselines/strategy.h"

namespace bds {

class AkamaiStrategy : public MulticastStrategy {
 public:
  std::string name() const override { return "akamai"; }
  StatusOr<MulticastRunResult> Run(const Topology& topo, const WanRoutingTable& routing,
                                   const MulticastJob& job, uint64_t seed,
                                   SimTime deadline) override;
};

}  // namespace bds

#endif  // BDS_SRC_BASELINES_AKAMAI_H_
