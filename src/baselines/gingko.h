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
  struct Options {
    int visibility = 3;
    int concurrent_downloads = 1;
    // Receivers re-pick their source only every `sticky_blocks` blocks
    // (chunk/stage granularity, as in the deployed system).
    int sticky_blocks = 24;
    // Fixed overlay: each receiver sees ~1/8 of the participants.
    double neighbor_fraction = 0.125;
    // Serial uploads: one receiver served at a time per source.
    int upload_slots = 1;
  };
  GingkoStrategy() : GingkoStrategy(Options{}) {}
  explicit GingkoStrategy(Options options) : options_(options) {}

  std::string name() const override { return "gingko"; }
  StatusOr<MulticastRunResult> Run(const Topology& topo, const WanRoutingTable& routing,
                                   const MulticastJob& job, uint64_t seed,
                                   SimTime deadline) override;

 private:
  Options options_;
};

class BulletStrategy : public MulticastStrategy {
 public:
  struct Options {
    int visibility = 4;
    int concurrent_downloads = 3;
    // RanSub re-draws a fresh random subset every 10 s epoch.
    double neighbor_fraction = 0.15;
    // Bullet serves a few parallel uploads per node.
    int upload_slots = 3;
  };
  BulletStrategy() : BulletStrategy(Options{}) {}
  explicit BulletStrategy(Options options) : options_(options) {}

  std::string name() const override { return "bullet"; }
  StatusOr<MulticastRunResult> Run(const Topology& topo, const WanRoutingTable& routing,
                                   const MulticastJob& job, uint64_t seed,
                                   SimTime deadline) override;

 private:
  Options options_;
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
