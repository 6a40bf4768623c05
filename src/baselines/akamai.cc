#include "src/baselines/akamai.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/simulator/network_simulator.h"
#include "src/topology/path.h"

namespace bds {

namespace {

// Blocks a reflector may have in flight from the source. Order is still
// sequential (live-streaming constraint), but a small window keeps the
// stream pipelined across block boundaries.
constexpr size_t kStreamWindow = 4;

}  // namespace

StatusOr<MulticastRunResult> AkamaiStrategy::Run(const Topology& topo,
                                                 const WanRoutingTable& routing,
                                                 const MulticastJob& job, uint64_t seed,
                                                 SimTime deadline) {
  (void)seed;  // Deterministic layered tree; no randomness needed.
  BDS_RETURN_IF_ERROR(job.Validate(topo.num_dcs()));
  NetworkSimulator sim(&topo);
  ReplicaState state(&topo);
  BDS_RETURN_IF_ERROR(state.AddJob(job));
  CompletionTracker tracker(&topo, &state);

  const int64_t num_blocks = job.num_blocks();

  // Reflector sets per destination DC: ~25 % of the DC's servers (at
  // least 1).
  std::unordered_map<DcId, std::vector<ServerId>> reflectors;
  for (DcId d : job.dest_dcs) {
    const auto& servers = topo.ServersIn(d);
    int r = std::max<int>(1, static_cast<int>(servers.size()) / 4);
    r = std::min<int>(r, static_cast<int>(servers.size()));
    reflectors[d].assign(servers.begin(), servers.begin() + r);
  }

  // Per-reflector sequential feed from the origin: blocks b with
  // b % R == reflector index, in ascending order.
  struct Feed {
    DcId dc;
    ServerId reflector;
    std::vector<int64_t> blocks;  // Ascending; consumed from the front.
    size_t next_start = 0;        // Next block to request.
    size_t next_finish = 0;       // Next block expected to land (in order).
  };
  std::vector<Feed> feeds;
  for (DcId d : job.dest_dcs) {
    const auto& refl = reflectors[d];
    int64_t r_count = static_cast<int64_t>(refl.size());
    for (int64_t r = 0; r < r_count; ++r) {
      Feed f;
      f.dc = d;
      f.reflector = refl[static_cast<size_t>(r)];
      for (int64_t b = r; b < num_blocks; b += r_count) {
        f.blocks.push_back(b);
      }
      if (!f.blocks.empty()) {
        feeds.push_back(std::move(f));
      }
    }
  }

  // Flow tags: tag = (feed index) for stage-1, or ~(transfer idx) for
  // stage-2 fan-out.
  struct Stage2 {
    int64_t block;
    ServerId src;
    ServerId dst;
  };
  std::vector<Stage2> stage2;

  auto start_feed_next = [&](size_t feed_idx) -> Status {
    Feed& f = feeds[feed_idx];
    // Keep up to kStreamWindow sequential blocks in flight.
    while (f.next_start < f.blocks.size() && f.next_start < f.next_finish + kStreamWindow) {
      int64_t b = f.blocks[f.next_start];
      const auto& holders = state.Holders(job.id, b);
      BDS_CHECK(!holders.empty());
      ServerId src = holders.front();  // The origin shard holder.
      auto path = MakeServerPath(topo, routing, src, f.reflector);
      if (!path.ok()) {
        return path.status();
      }
      auto flow = sim.StartFlow(path->links, job.BlockSizeOf(b), 0.0,
                                static_cast<int64_t>(feed_idx), /*tag2=*/1);
      if (!flow.ok()) {
        return flow.status();
      }
      ++f.next_start;
    }
    return Status::Ok();
  };

  Status callback_status = Status::Ok();
  sim.SetCompletionCallback([&](const FlowRecord& rec) {
    if (!callback_status.ok()) {
      return;
    }
    if (rec.tag2 == 1) {
      // Stage 1 complete: blocks land in order within a feed.
      Feed& f = feeds[static_cast<size_t>(rec.tag)];
      int64_t b = f.blocks[f.next_finish];
      ++f.next_finish;
      const auto& origin_holders = state.Holders(job.id, b);
      ServerId src = origin_holders.empty() ? kInvalidServer : origin_holders.front();
      (void)state.NoteDelivery(job.id, b, src, f.reflector);
      tracker.OnDelivery(f.reflector, sim.now());

      // Fan out to the assigned edge server (if not the reflector itself).
      ServerId edge = state.AssignedServer(job.id, b, f.dc);
      if (edge != f.reflector && !state.ServerHasBlock(job.id, b, edge)) {
        auto path = MakeServerPath(topo, routing, f.reflector, edge);
        if (path.ok()) {
          stage2.push_back(Stage2{b, f.reflector, edge});
          auto flow = sim.StartFlow(path->links, job.BlockSizeOf(b), 0.0,
                                    static_cast<int64_t>(stage2.size()) - 1, /*tag2=*/2);
          if (!flow.ok()) {
            callback_status = flow.status();
            return;
          }
        } else {
          callback_status = path.status();
          return;
        }
      }
      // Sequential order: fetch the next block only now.
      Status s = start_feed_next(static_cast<size_t>(rec.tag));
      if (!s.ok()) {
        callback_status = s;
      }
    } else if (rec.tag2 == 2) {
      const Stage2& t = stage2[static_cast<size_t>(rec.tag)];
      (void)state.NoteDelivery(job.id, t.block, t.src, t.dst);
      tracker.OnDelivery(t.dst, sim.now());
    }
  });

  for (size_t i = 0; i < feeds.size(); ++i) {
    BDS_RETURN_IF_ERROR(start_feed_next(i));
  }
  auto end = sim.RunUntilIdle(deadline);
  if (!end.ok()) {
    return end.status();
  }
  BDS_RETURN_IF_ERROR(callback_status);
  return tracker.Finish(*end, state.AllComplete());
}

}  // namespace bds
