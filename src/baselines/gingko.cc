#include "src/baselines/gingko.h"

#include "src/simulator/network_simulator.h"

namespace bds {

namespace {

// Gingko: each receiver sees 3 holders per request on a fixed overlay of
// ~1/8 of the participants, pulls one block at a time and re-picks its
// source only every 24 blocks (chunk/stage granularity, as in the deployed
// system); a source serves one receiver at a time.
constexpr int kGingkoVisibility = 3;
constexpr int kGingkoStickyBlocks = 24;
constexpr double kGingkoNeighborFraction = 0.125;

// Bullet: RanSub re-draws a fresh random subset of ~15% of the participants
// every 10 s epoch; a receiver sees 4 holders and runs 3 concurrent
// fetches, and each node serves 3 parallel uploads.
constexpr SimTime kBulletEpoch = 10.0;
constexpr int kBulletVisibility = 4;
constexpr int kBulletConcurrentDownloads = 3;
constexpr double kBulletNeighborFraction = 0.15;
constexpr int kBulletUploadSlots = 3;

}  // namespace

StatusOr<MulticastRunResult> RunDecentralized(const Topology& topo,
                                              const WanRoutingTable& routing,
                                              const MulticastJob& job,
                                              DecentralizedEngine::Options options,
                                              SimTime deadline) {
  BDS_RETURN_IF_ERROR(job.Validate(topo.num_dcs()));
  NetworkSimulator sim(&topo);
  ReplicaState state(&topo);
  BDS_RETURN_IF_ERROR(state.AddJob(job));
  CompletionTracker tracker(&topo, &state);
  DecentralizedEngine engine(&topo, &routing, &sim, &state, options);
  engine.SetDeliveryCallback([&](JobId, int64_t, ServerId, ServerId dst) {
    tracker.OnDelivery(dst, sim.now());
  });
  sim.SetCompletionCallback([&](const FlowRecord& r) { engine.OnFlowComplete(r); });
  engine.Activate();

  // Tick-driven run: receivers whose neighbors do not hold their blocks yet
  // stall and retry every tick, exactly like periodic re-requests.
  const SimTime kTick = 1.0;
  int64_t idle_ticks = 0;
  while (!state.AllComplete() && sim.now() < deadline) {
    int64_t pending_before = state.num_pending();
    auto end = sim.RunUntilIdle(std::min(deadline, sim.now() + kTick));
    if (!end.ok()) {
      return end.status();
    }
    if (sim.now() < deadline && !state.AllComplete()) {
      BDS_RETURN_IF_ERROR(sim.AdvanceTo(std::min(deadline, sim.now() + kTick)));
    }
    engine.Tick();
    idle_ticks = state.num_pending() == pending_before ? idle_ticks + 1 : 0;
    if (idle_ticks > 10 * options.stall_escalation + 1000) {
      break;  // Wedged beyond any escalation path; report incomplete.
    }
  }
  return tracker.Finish(sim.now(), state.AllComplete());
}

StatusOr<MulticastRunResult> GingkoStrategy::Run(const Topology& topo,
                                                 const WanRoutingTable& routing,
                                                 const MulticastJob& job, uint64_t seed,
                                                 SimTime deadline) {
  DecentralizedEngine::Options opt;
  opt.visibility = kGingkoVisibility;
  opt.concurrent_downloads = 1;
  opt.resample_period = 0.0;  // Fixed overlay, per-request source choice.
  opt.sticky_blocks = kGingkoStickyBlocks;
  opt.neighbor_fraction = kGingkoNeighborFraction;
  opt.upload_slots = 1;
  opt.seed = seed;
  return RunDecentralized(topo, routing, job, opt, deadline);
}

StatusOr<MulticastRunResult> BulletStrategy::Run(const Topology& topo,
                                                 const WanRoutingTable& routing,
                                                 const MulticastJob& job, uint64_t seed,
                                                 SimTime deadline) {
  DecentralizedEngine::Options opt;
  opt.visibility = kBulletVisibility;
  opt.concurrent_downloads = kBulletConcurrentDownloads;
  opt.resample_period = kBulletEpoch;
  opt.neighbor_fraction = kBulletNeighborFraction;
  opt.upload_slots = kBulletUploadSlots;
  opt.seed = seed;
  return RunDecentralized(topo, routing, job, opt, deadline);
}

StatusOr<MulticastRunResult> DirectStrategy::Run(const Topology& topo,
                                                 const WanRoutingTable& routing,
                                                 const MulticastJob& job, uint64_t seed,
                                                 SimTime deadline) {
  DecentralizedEngine::Options opt;
  opt.visibility = 0;  // Full visibility of the origin's holders.
  opt.concurrent_downloads = 1;
  opt.origin_only = true;
  opt.randomize_order = false;
  opt.seed = seed;
  return RunDecentralized(topo, routing, job, opt, deadline);
}

}  // namespace bds
