#include "src/baselines/gingko.h"

#include "src/simulator/network_simulator.h"

namespace bds {

namespace {

constexpr SimTime kBulletEpoch = 10.0;  // RanSub distribution period.

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
  opt.visibility = options_.visibility;
  opt.concurrent_downloads = options_.concurrent_downloads;
  opt.resample_period = 0.0;  // Fixed overlay, per-request source choice.
  opt.sticky_blocks = options_.sticky_blocks;
  opt.neighbor_fraction = options_.neighbor_fraction;
  opt.upload_slots = options_.upload_slots;
  opt.seed = seed;
  return RunDecentralized(topo, routing, job, opt, deadline);
}

StatusOr<MulticastRunResult> BulletStrategy::Run(const Topology& topo,
                                                 const WanRoutingTable& routing,
                                                 const MulticastJob& job, uint64_t seed,
                                                 SimTime deadline) {
  DecentralizedEngine::Options opt;
  opt.visibility = options_.visibility;
  opt.concurrent_downloads = options_.concurrent_downloads;
  opt.resample_period = kBulletEpoch;
  opt.neighbor_fraction = options_.neighbor_fraction;
  opt.upload_slots = options_.upload_slots;
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
