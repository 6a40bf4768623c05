// A flow is the simulator's unit of data movement: a fixed byte count moving
// along a fixed sequence of capacity-constrained links.
//
// Two rate regimes exist, matching the systems being modelled:
//  * pinned  — BDS's controller assigns an explicit rate (the deployment
//              enforces it with `wget --limit-rate` / tc); the flow never
//              exceeds it, and is scaled down only if links are oversubscribed.
//  * fair    — decentralized baselines let TCP find the rate; modelled as
//              max-min fair sharing of residual link capacity.
//
// NetworkSimulator does not store flow objects: active flows live in a
// struct-of-arrays pool (FlowSoA), are observed through FlowView, and leave
// as a FlowRecord through the completion callback.

#ifndef BDS_SRC_SIMULATOR_FLOW_H_
#define BDS_SRC_SIMULATOR_FLOW_H_

#include <cstdint>

#include "src/common/types.h"

namespace bds {

// Read-only snapshot of an in-flight flow in the simulator's SoA pool,
// returned by NetworkSimulator::FindFlow. `links` points into the pool's
// shared path arena and is invalidated by the next flow start/cancel/
// completion — consume it before mutating the simulator.
struct FlowView {
  FlowId id = kInvalidFlow;
  Bytes total_bytes = 0.0;
  Bytes remaining = 0.0;  // As of anchor_time; use RemainingAt(now).
  SimTime anchor_time = 0.0;
  Rate pinned_rate = 0.0;
  Rate current_rate = 0.0;
  SimTime start_time = 0.0;
  int64_t tag = 0;
  int64_t tag2 = 0;
  const LinkId* links = nullptr;
  int32_t num_links = 0;

  bool pinned() const { return pinned_rate > 0.0; }

  bool Crosses(LinkId link) const {
    for (int32_t i = 0; i < num_links; ++i) {
      if (links[i] == link) {
        return true;
      }
    }
    return false;
  }

  Bytes RemainingAt(SimTime t) const {
    Bytes left = remaining - current_rate * (t - anchor_time);
    return left > 0.0 ? left : 0.0;
  }
};

// Immutable record of a finished flow, handed to the completion callback.
struct FlowRecord {
  FlowId id = kInvalidFlow;
  Bytes bytes = 0.0;
  SimTime start_time = 0.0;
  SimTime end_time = 0.0;
  int64_t tag = 0;
  int64_t tag2 = 0;

  SimTime Duration() const { return end_time - start_time; }
};

}  // namespace bds

#endif  // BDS_SRC_SIMULATOR_FLOW_H_
