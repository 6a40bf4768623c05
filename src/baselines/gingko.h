// Engine-backed baseline strategies:
//
//  * GingkoStrategy — Baidu's receiver-driven decentralized overlay (§2.3):
//    per-request random source choice among a partially visible holder set.
//  * BulletStrategy — Bullet's RanSub mesh [26]: epoch-based random peer
//    subsets, several concurrent fetches of disjoint blocks.
//  * DirectStrategy — no overlay at all: every destination pulls every block
//    from the origin DC (Figure 3(b)).

#ifndef BDS_SRC_BASELINES_GINGKO_H_
#define BDS_SRC_BASELINES_GINGKO_H_

#include <string>

#include "src/baselines/decentralized_engine.h"
#include "src/baselines/strategy.h"

namespace bds {

// Shared implementation: run one job through a DecentralizedEngine
// configured by `options`.
StatusOr<MulticastRunResult> RunDecentralized(const Topology& topo,
                                              const WanRoutingTable& routing,
                                              const MulticastJob& job,
                                              DecentralizedEngine::Options options,
                                              SimTime deadline);

class GingkoStrategy : public MulticastStrategy {
 public:
  std::string name() const override { return "gingko"; }
  StatusOr<MulticastRunResult> Run(const Topology& topo, const WanRoutingTable& routing,
                                   const MulticastJob& job, uint64_t seed,
                                   SimTime deadline) override;
};

class BulletStrategy : public MulticastStrategy {
 public:
  std::string name() const override { return "bullet"; }
  StatusOr<MulticastRunResult> Run(const Topology& topo, const WanRoutingTable& routing,
                                   const MulticastJob& job, uint64_t seed,
                                   SimTime deadline) override;
};

class DirectStrategy : public MulticastStrategy {
 public:
  std::string name() const override { return "direct"; }
  StatusOr<MulticastRunResult> Run(const Topology& topo, const WanRoutingTable& routing,
                                   const MulticastJob& job, uint64_t seed,
                                   SimTime deadline) override;
};

}  // namespace bds

#endif  // BDS_SRC_BASELINES_GINGKO_H_
