#include "src/scheduler/controller_algorithm.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <map>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "src/common/status.h"
#include "src/lp/mcf.h"
#include "src/telemetry/telemetry.h"
#include "src/topology/path.h"

namespace bds {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Process CPU clock for the per-phase decision timings: unlike the wall
// timers above it charges worker-thread time too, so the bench's "cycle CPU
// under budget" acceptance can't be gamed by adding threads.
double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

RungKnobs KnobsForRung(DegradationRung rung, const ControllerAlgorithmOptions& options) {
  constexpr int64_t kShedCap = 4096;
  return RungKnobs{
      rung >= DegradationRung::kFirstRouteOnly ? 1 : options.max_wan_routes,
      rung >= DegradationRung::kCoarseEpsilon ? std::min(0.5, options.fptas_epsilon * 4.0)
                                              : options.fptas_epsilon,
      rung >= DegradationRung::kShedCandidates ? kShedCap : 0,
      rung == DegradationRung::kExtendDecisions};
}

ControllerAlgorithm::ControllerAlgorithm(const Topology* topo, const WanRoutingTable* routing,
                                         ControllerAlgorithmOptions options)
    : topo_(topo),
      routing_(routing),
      options_(options),
      pool_(options.num_threads) {
  BDS_CHECK(topo != nullptr && routing != nullptr);
  BDS_CHECK(options_.cycle_length > 0.0);
  BDS_CHECK(options_.max_wan_routes >= 1);
  BDS_CHECK(options_.budget_fraction > 0.0 && options_.budget_fraction <= 1.0);
  BDS_CHECK(options_.num_threads >= 1);
  BDS_CHECK(options_.num_shards >= 1);
}

std::vector<ControllerAlgorithm::Selected> ControllerAlgorithm::ScheduleBlocks(
    const ReplicaState& state, const std::vector<Rate>& residual_capacities,
    const DeliveryKeySet& in_flight) {
  if (options_.schedule_all) {
    // Joint formulation: every outstanding delivery goes to the solver.
    std::vector<PendingDelivery> pending = state.PendingDeliveries();
    std::vector<Selected> all;
    all.reserve(pending.size());
    for (const PendingDelivery& p : pending) {
      if (p.dest_server == kInvalidServer || state.ServerFailed(p.dest_server) ||
          in_flight.count(DeliveryKey{p.job, p.block, p.dc}) != 0) {
        continue;
      }
      const MulticastJob* job = state.FindJob(p.job);
      BDS_CHECK(job != nullptr);
      DcId dest_dc = topo_->server(p.dest_server).dc;
      for (ServerId h : state.Holders(p.job, p.block)) {
        DcId src_dc = topo_->server(h).dc;
        if (h != p.dest_server && (src_dc == dest_dc || routing_->Reachable(src_dc, dest_dc))) {
          all.push_back(Selected{p, job->BlockSizeOf(p.block), h});
          break;
        }
      }
    }
    return all;
  }

  // Per-server byte budgets for this cycle (constraint (3) of §4.1): a
  // server can upload/download at most rate * Delta-T bytes per cycle, where
  // rate is the residual on its NIC link.
  auto link_residual = [&](LinkId l) {
    return static_cast<size_t>(l) < residual_capacities.size()
               ? residual_capacities[static_cast<size_t>(l)]
               : topo_->link(l).capacity;
  };
  // Dense per-server budget arrays (lazily filled): the selection loop reads
  // budgets on every pop and for every holder, and hash-map lookups there
  // dominated the loop at the 10^5-block scale.
  const size_t num_servers = static_cast<size_t>(topo_->num_servers());
  std::vector<Bytes> up_budget(num_servers, 0.0);
  std::vector<Bytes> down_budget(num_servers, 0.0);
  std::vector<uint8_t> up_init(num_servers, 0);
  std::vector<uint8_t> down_init(num_servers, 0);
  auto up_left = [&](ServerId s) -> Bytes& {
    size_t i = static_cast<size_t>(s);
    if (!up_init[i]) {
      up_init[i] = 1;
      up_budget[i] =
          link_residual(topo_->server(s).uplink) * options_.cycle_length * options_.budget_fraction;
    }
    return up_budget[i];
  };
  auto down_left = [&](ServerId s) -> Bytes& {
    size_t i = static_cast<size_t>(s);
    if (!down_init[i]) {
      down_init[i] = 1;
      down_budget[i] = link_residual(topo_->server(s).downlink) * options_.cycle_length *
                       options_.budget_fraction;
    }
    return down_budget[i];
  };

  // Generalized rarest-first with *speculative* duplicate counting (the
  // controller's speculation of §5.1): scheduling a copy of block b raises
  // b's effective duplicate count immediately, so within one cycle BDS
  // spreads distinct blocks across destinations first and replicates the
  // same block to all m destinations only when budget remains. The extra
  // copies materialize next cycle as new overlay sources.
  // A candidate is 24 bytes: no PendingDelivery vector is materialized at
  // all. `key` packs the delivery's coordinates (job position, block,
  // dest-DC position) into bit fields that strictly increase in
  // PendingDeliveries() order, so ordering by (eff_dup, salt, key) compares
  // every pair exactly as the pre-optimization (eff_dup, salt,
  // pending_index) order did — same pop sequence, same decision — while the
  // popped delivery's remaining fields (dest server, duplicate count) are
  // recomputed on demand for the few thousand candidates that actually get
  // popped, instead of for the possible millions that never leave the queue.
  constexpr uint64_t kBlockMask = (uint64_t{1} << 42) - 1;
  auto pack_key = [](size_t jp, int64_t block, size_t dp) {
    return (static_cast<uint64_t>(jp) << 48) | (static_cast<uint64_t>(block) << 6) |
           static_cast<uint64_t>(dp);
  };
  BDS_CHECK_MSG(state.job_ids().size() < (size_t{1} << 16),
                "ScheduleBlocks: too many concurrent jobs for packed keys");
  // One hash lookup per job here buys O(1) per-pop access below: the pop
  // loop reads duplicate counts and holder lists for hundreds of thousands
  // of candidates per cycle, and per-pop jobs_ lookups dominated it.
  std::vector<ReplicaState::JobCursor> cursors;
  std::vector<const MulticastJob*> jobs_by_pos;
  cursors.reserve(state.job_ids().size());
  jobs_by_pos.reserve(state.job_ids().size());
  for (size_t jp = 0; jp < state.job_ids().size(); ++jp) {
    cursors.push_back(state.CursorAt(jp));
    const MulticastJob* job = &cursors.back().job();
    BDS_CHECK_MSG(job->num_blocks() <= static_cast<int64_t>(kBlockMask),
                  "ScheduleBlocks: job too large for packed keys");
    jobs_by_pos.push_back(job);  // dest_dcs fit 6 bits: at most 64 DCs total.
  }
  const bool any_failed = state.AnyServerFailed();
  std::unordered_map<uint64_t, int> extra_dups;  // (job, block) -> copies scheduled now.
  auto block_key = [](JobId job, int64_t block) {
    return static_cast<uint64_t>(job) * 0x1000003 + static_cast<uint64_t>(block);
  };
  // The tie-break salt spreads equally-rare candidates across destination
  // DCs and blocks; ordering by pending position instead would aim every
  // first copy at the lowest-numbered DC and leave the others' downlinks
  // idle for the whole cycle.
  auto candidate_salt = [&](JobId job, int64_t block, DcId dc) {
    uint64_t h = block_key(job, block) * 0x9E3779B97F4A7C15ULL +
                 static_cast<uint64_t>(dc) * 0xC2B2AE3D27D4EB4FULL;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return h;
  };
  const SchedulingPolicy policy = options_.policy;
  const int num_shards = options_.num_shards;
  // The candidate build touches every pending delivery (up to 10^7 at the
  // fleet scale), so it runs in parallel: every (job, 64-block range) is
  // priced with CountOwedInRange (one popcount per block), a prefix sum turns
  // the counts into exact slots, and each range streams ForEachOwedInRange
  // into its own slots with fused salts. Slots reproduce ForEachOwed order
  // exactly; kSequential's salt is the key itself, since packed coordinates
  // sort exactly like pending indices. Nothing survives to the next cycle:
  // every Decide() builds from the state it is handed.
  constexpr int64_t kRangeBlocks = 64;
  struct Range {
    size_t jp;
    int64_t b0;
  };
  std::vector<Range> ranges;
  for (size_t jp = 0; jp < jobs_by_pos.size(); ++jp) {
    for (int64_t b0 = 0; b0 < jobs_by_pos[jp]->num_blocks(); b0 += kRangeBlocks) {
      ranges.push_back(Range{jp, b0});
    }
  }
  std::vector<int64_t> range_count(ranges.size(), 0);
  pool_.For(ranges.size(), [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      range_count[r] = state.CountOwedInRange(ranges[r].jp, ranges[r].b0,
                                              ranges[r].b0 + kRangeBlocks);
    }
  });
  std::vector<size_t> range_offset(ranges.size(), 0);
  size_t total = 0;
  for (size_t r = 0; r < ranges.size(); ++r) {
    range_offset[r] = total;
    total += static_cast<size_t>(range_count[r]);
  }
  BDS_CHECK(total == static_cast<size_t>(state.num_pending()));
  CandVec& cands = cand_work_;
  cands.resize(total);
  pool_.ForWeighted(range_count, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      size_t w = range_offset[r];
      state.ForEachOwedInRange(
          ranges[r].jp, ranges[r].b0, ranges[r].b0 + kRangeBlocks,
          [&](size_t jp, const MulticastJob& job, int64_t block, size_t dp, DcId dc, int dups) {
            const uint64_t key = pack_key(jp, block, dp);
            cands[w++] = Candidate{
                policy == SchedulingPolicy::kRarestFirst ? dups : 0,
                policy == SchedulingPolicy::kSequential ? key : candidate_salt(job.id, block, dc),
                key};
          });
      BDS_CHECK(w == range_offset[r] + static_cast<size_t>(range_count[r]));
    }
  });

  // Candidate queue. Pops always extract the global minimum of the remaining
  // candidates under the strict total order (eff_dup, salt, index) — indices
  // are unique, so the order has no ties and ANY correct implementation pops
  // the identical sequence. That is the whole parity argument for sharding
  // the queue: K per-shard queues over contiguous ranges of the array plus a
  // K-way merge at pop time still return the global minimum every time.
  // Each shard is chunked: nth_element carves the kChunk smallest candidates
  // out of the shard's unsorted tail and sorts just those; stale re-pushes go
  // to a small global side heap merged at pop time. Every tail element is >=
  // every carved element of its shard, so min(shard run fronts, side top) is
  // the global minimum. The early exit keeps the pop count in the thousands,
  // so one carve per shard usually suffices. With K > 1 the initial carves
  // run in parallel (each shard's carve touches only its own range);
  // re-carves happen lazily in-pop.
  constexpr size_t kChunk = 16384;
  auto cand_less = [](const Candidate& a, const Candidate& b) { return b > a; };
  struct ShardQueue {
    size_t begin = 0, end = 0;        // This shard's slice of cands.
    size_t run_pos = 0, run_end = 0;  // Sorted run.
    size_t tail = 0;                  // Unsorted remainder start.
    size_t chunk = kChunk;            // Next carve size (doubles).
  };
  std::priority_queue<Candidate, CandVec, std::greater<Candidate>> side;
  auto carve = [&](ShardQueue& sh) {  // Pre: sh.tail < sh.end.
    const size_t k = std::min(sh.chunk, sh.end - sh.tail);
    // Each re-carve pays an nth_element pass over the shard's whole
    // unsorted tail, so the carve size doubles every time a shard's run is
    // exhausted: deep-popping cycles (fleet scale pops hundreds of
    // thousands) amortize to O(log) tail passes instead of one per kChunk.
    // Pop order is unaffected — every tail element is >= every carved
    // element regardless of where the carve boundary lands.
    sh.chunk *= 2;
    auto begin = cands.begin() + static_cast<ptrdiff_t>(sh.tail);
    auto shard_end = cands.begin() + static_cast<ptrdiff_t>(sh.end);
    std::nth_element(begin, begin + static_cast<ptrdiff_t>(k) - 1, shard_end, cand_less);
    std::sort(begin, begin + static_cast<ptrdiff_t>(k), cand_less);
    sh.run_pos = sh.tail;
    sh.run_end = sh.tail + k;
    sh.tail = sh.run_end;
  };
  const size_t n = cands.size();
  const size_t S = static_cast<size_t>(num_shards);
  std::vector<ShardQueue> shards(S);
  for (size_t s = 0; s < S; ++s) {
    ShardQueue& sh = shards[s];
    sh.begin = n * s / S;
    sh.end = n * (s + 1) / S;
    sh.run_pos = sh.run_end = sh.tail = sh.begin;
  }
  if (S > 1) {
    pool_.For(S, [&](size_t b, size_t e) {
      for (size_t s = b; s < e; ++s) {
        if (shards[s].tail < shards[s].end) {
          carve(shards[s]);
        }
      }
    });
  }
  auto queue_empty = [&] {
    if (!side.empty()) {
      return false;
    }
    for (const ShardQueue& sh : shards) {
      if (sh.run_pos < sh.run_end || sh.tail < sh.end) {
        return false;
      }
    }
    return true;
  };
  auto queue_pop = [&]() -> Candidate {
    const Candidate* best = nullptr;
    size_t best_s = 0;
    for (size_t s = 0; s < shards.size(); ++s) {
      ShardQueue& sh = shards[s];
      if (sh.run_pos == sh.run_end) {
        if (sh.tail >= sh.end) {
          continue;
        }
        carve(sh);
      }
      const Candidate& front = cands[sh.run_pos];
      if (best == nullptr || *best > front) {
        best = &front;
        best_s = s;
      }
    }
    if (best != nullptr && (side.empty() || side.top() > *best)) {
      return cands[shards[best_s].run_pos++];
    }
    Candidate c = side.top();
    side.pop();
    return c;
  };
  auto queue_push = [&](const Candidate& c) { side.push(c); };

  // Early-exit bookkeeping: once every owed destination server's download
  // budget is saturated, every possible source server's upload budget is
  // spent, or selection stops making progress, the remaining (possibly
  // millions of) candidates cannot be scheduled this cycle. The source-side
  // exit is exact, not heuristic: budgets only ever decrease within a cycle,
  // every transfer source is by definition a holder of some block, and
  // `holder_universe` counts exactly the servers holding any block — so once
  // that many distinct servers have been seen with an empty upload budget,
  // every future pop would fail its source scan, and breaking cannot change
  // the decision. Without this exit the loop pays the full failure_patience
  // tail (tens of thousands of pops) every time budgets run out before
  // candidates do, which is the common case at the Fig 11a scale.
  const int64_t owed_servers = state.NumOwedServers();
  const int64_t holder_universe = state.NumHolderServers();
  std::unordered_set<ServerId> saturated_dests;
  std::vector<uint8_t> src_exhausted(num_servers, 0);
  int64_t num_src_exhausted = 0;
  auto note_src_exhausted = [&](ServerId s) {
    uint8_t& seen = src_exhausted[static_cast<size_t>(s)];
    if (!seen) {
      seen = 1;
      ++num_src_exhausted;
    }
  };
  int64_t failures_since_success = 0;
  const int64_t failure_patience =
      64 * static_cast<int64_t>(topo_->num_servers()) + 4096;

  // Hot loop: accumulate into plain locals, publish to the registry once at
  // the end (so the disabled cost stays one branch per *call*, not per pop).
  int64_t pops = 0;
  int64_t stale_requeues = 0;
  bool early_exit = false;

  // Per-cycle selection cap: none, except on the shed rung.
  const int64_t max_deliveries = KnobsForRung(rung_, options_).max_deliveries;

  std::vector<Selected> selected;
  while (!queue_empty()) {
    if (max_deliveries > 0 && static_cast<int64_t>(selected.size()) >= max_deliveries) {
      break;
    }
    if (static_cast<int64_t>(saturated_dests.size()) >= owed_servers ||
        num_src_exhausted >= holder_universe ||
        failures_since_success > failure_patience) {
      early_exit = true;
      break;
    }
    Candidate c = queue_pop();
    ++pops;
    // Unpack the delivery's coordinates; dest server and duplicate count are
    // recomputed here, for popped candidates only (AssignedServer is a pure
    // function of the coordinates, and holder sets don't change mid-cycle).
    const size_t jpos = static_cast<size_t>(c.key >> 48);
    const MulticastJob* job = jobs_by_pos[jpos];
    PendingDelivery p;
    p.job = job->id;
    p.block = static_cast<int64_t>((c.key >> 6) & kBlockMask);
    p.dc = job->dest_dcs[c.key & 63];
    p.dest_server = state.AssignedServer(p.job, p.block, p.dc);
    p.duplicates = cursors[jpos].duplicate_count(p.block);
    // One hash per candidate: the same (job, block) key drives the staleness
    // check, the holder-offset salt, and the speculative duplicate credit.
    // Read-only lookup here — most candidates are popped once and rejected,
    // and inserting a zero entry for each of them (up to 10^6) would turn
    // the map into the selection loop's dominant cost.
    const uint64_t bkey = block_key(p.job, p.block);
    const auto dups_it = extra_dups.find(bkey);
    const int dups = dups_it != extra_dups.end() ? dups_it->second : 0;
    if (options_.policy == SchedulingPolicy::kRarestFirst) {
      int now_dup = p.duplicates + dups;
      if (now_dup > c.eff_dup) {
        c.eff_dup = now_dup;  // Stale: re-queue with the updated key.
        queue_push(c);
        ++stale_requeues;
        continue;
      }
    }
    if (!in_flight.empty() && in_flight.count(DeliveryKey{p.job, p.block, p.dc}) != 0) {
      continue;
    }
    if (p.dest_server == kInvalidServer || (any_failed && state.ServerFailed(p.dest_server))) {
      continue;  // No live agent can receive this delivery right now.
    }
    Bytes bytes = job->BlockSizeOf(p.block);

    // A block larger than a whole cycle budget may still be scheduled (it
    // simply spans cycles as an in-flight transfer), so the budget check is
    // "budget not yet exhausted", and charging may drive it negative.
    // References into the budget maps stay valid across later inserts, so
    // the charge below reuses this lookup instead of hashing again.
    Bytes& dest_down_left = down_left(p.dest_server);
    if (dest_down_left <= 0.0) {
      saturated_dests.insert(p.dest_server);
      ++failures_since_success;
      continue;  // Destination NIC budget exhausted this cycle.
    }

    // Source selection: among the holders with enough upload budget left,
    // take the least-loaded one (largest remaining budget), breaking ties
    // pseudo-randomly so equal holders share the load — this global
    // balancing is what avoids the hotspots local adaptation creates
    // (§2.3 Limitation 1).
    const std::vector<ServerId>& holders = cursors[jpos].holders(p.block);
    ServerId best_src = kInvalidServer;
    Bytes* best_left = nullptr;
    Bytes best_budget = 0.0;
    if (!holders.empty()) {
      uint64_t salt = bkey * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(p.dc) * 0x85EBCA6B;
      size_t offset = static_cast<size_t>(salt % holders.size());
      DcId dest_dc = topo_->server(p.dest_server).dc;
      for (size_t i = 0; i < holders.size(); ++i) {
        ServerId h = holders[(i + offset) % holders.size()];
        if (h == p.dest_server) {
          continue;
        }
        DcId src_dc = topo_->server(h).dc;
        if (src_dc != dest_dc && !routing_->Reachable(src_dc, dest_dc)) {
          continue;  // No WAN route from this holder to the destination.
        }
        Bytes& left = up_left(h);
        if (left > 0.0 && left > best_budget * (1.0 + 1e-9)) {
          best_budget = left;
          best_src = h;
          best_left = &left;
        } else if (left <= 0.0) {
          note_src_exhausted(h);
        }
      }
    }
    if (best_src == kInvalidServer) {
      ++failures_since_success;
      continue;  // No holder can upload this block this cycle.
    }

    failures_since_success = 0;
    *best_left -= bytes;
    if (*best_left <= 0.0) {
      note_src_exhausted(best_src);
    }
    dest_down_left -= bytes;
    ++extra_dups[bkey];  // Insert-on-accept keeps the map at O(selected).
    selected.push_back(Selected{p, bytes, best_src});
  }
  BDS_TELEMETRY_COUNT("scheduler.candidate_pops", pops);
  BDS_TELEMETRY_COUNT("scheduler.stale_requeues", stale_requeues);
  BDS_TELEMETRY_COUNT("scheduler.early_exits", early_exit ? 1 : 0);
  BDS_TELEMETRY_COUNT("scheduler.blocks_selected", static_cast<int64_t>(selected.size()));
  return selected;
}

void ControllerAlgorithm::RouteBlocks(std::vector<Selected> selected,
                                      const std::vector<Rate>& residual_capacities,
                                      CycleDecision& decision) {
  if (selected.empty()) {
    return;
  }
  const double route_cpu0 = ProcessCpuSeconds();

  // Merge deliveries into subtasks keyed by (src, dst) server pair (§5.1);
  // with merging disabled every delivery is its own commodity.
  struct Subtask {
    ServerId src;
    ServerId dst;
    JobId job;
    std::vector<int64_t> blocks;
    Bytes bytes = 0.0;
  };
  std::vector<Subtask> subtasks;
  if (options_.merge_subtasks) {
    std::map<std::tuple<ServerId, ServerId, JobId>, size_t> index;
    for (const Selected& s : selected) {
      auto key = std::make_tuple(s.src_server, s.delivery.dest_server, s.delivery.job);
      auto [it, inserted] = index.try_emplace(key, subtasks.size());
      if (inserted) {
        subtasks.push_back(
            Subtask{s.src_server, s.delivery.dest_server, s.delivery.job, {}, 0.0});
      }
      Subtask& st = subtasks[it->second];
      st.blocks.push_back(s.delivery.block);
      st.bytes += s.bytes;
    }
  } else {
    subtasks.reserve(selected.size());
    for (const Selected& s : selected) {
      subtasks.push_back(Subtask{s.src_server, s.delivery.dest_server, s.delivery.job,
                                 {s.delivery.block}, s.bytes});
    }
  }
  decision.merged_subtasks = static_cast<int64_t>(subtasks.size());
  const size_t num_subtasks = subtasks.size();
  BDS_TELEMETRY_COUNT("scheduler.route_subtasks", decision.merged_subtasks);

  // Build the path-based MCF: one commodity per subtask; demand is the rate
  // that finishes the subtask within the cycle. The instance and the path
  // buffers are members reused across cycles — per-cycle allocation churn on
  // thousands of small vectors is measurable at the Fig 11a scale.
  McfInstance& instance = mcf_instance_;
  instance.capacities.assign(residual_capacities.begin(), residual_capacities.end());
  instance.capacities.resize(static_cast<size_t>(topo_->num_links()),
                             0.0);  // Defensive: full length.
  instance.commodities.resize(num_subtasks);
  subtask_paths_.resize(num_subtasks);

  // The degradation rung may cut routes per subtask to routes[0] only and
  // coarsen epsilon (fewer FPTAS phases).
  const RungKnobs knobs = KnobsForRung(rung_, options_);

  // Per-subtask path build and commodity build: independent work writing to
  // pre-sized slots.
  pool_.For(num_subtasks, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Subtask& st = subtasks[i];
      std::vector<ServerPath>& paths = subtask_paths_[i];
      MakeServerPaths(*topo_, *routing_, st.src, st.dst, knobs.route_cap, &paths);
      McfCommodity& commodity = instance.commodities[i];
      commodity.demand = st.bytes / options_.cycle_length;
      commodity.paths.resize(paths.size());
      for (size_t p = 0; p < paths.size(); ++p) {
        std::vector<int>& links = commodity.paths[p].links;
        links.clear();
        links.reserve(paths[p].links.size());
        for (LinkId l : paths[p].links) {
          links.push_back(static_cast<int>(l));
        }
      }
    }
  });

  const McfResult flows = options_.use_exact_lp ? SolveMcfSimplex(instance)
                                                : SolveMcfFptas(instance, knobs.fptas_epsilon);
  // Phase accounting: instance build + the whole solve (finalize included)
  // count as "solve"; the block-split/transfer-emission tail below is
  // "merge".
  const double solve_cpu_end = ProcessCpuSeconds();
  decision.solve_cpu_seconds += solve_cpu_end - route_cpu0;
  if (!flows.ok) {
    return;  // No routing possible this cycle (e.g. LP hit iteration limit).
  }

  // Turn per-path flows into transfer assignments. Blocks are atomic, so a
  // subtask's blocks are split across its paths proportionally to the
  // allocated rates. Each subtask's transfers are built independently, then
  // appended in subtask order so the output is thread-count-invariant.
  std::vector<std::vector<TransferAssignment>> per_subtask(num_subtasks);
  pool_.For(num_subtasks, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Subtask& st = subtasks[i];
      const std::vector<ServerPath>& paths = subtask_paths_[i];
      const std::vector<double>& path_flow = flows.flow[i];
      if (paths.empty()) {
        continue;  // Nothing allocated; the delivery stays pending.
      }
      int64_t num_blocks = static_cast<int64_t>(st.blocks.size());
      std::vector<int64_t> counts = SplitBlocksAcrossPaths(num_blocks, path_flow);
      int64_t cursor = 0;
      double bytes_per_block = st.bytes / static_cast<double>(num_blocks);
      for (size_t p = 0; p < paths.size(); ++p) {
        if (counts[p] <= 0) {
          continue;
        }
        TransferAssignment t;
        t.job = st.job;
        t.blocks.assign(st.blocks.begin() + cursor, st.blocks.begin() + cursor + counts[p]);
        cursor += counts[p];
        t.bytes = bytes_per_block * static_cast<double>(counts[p]);
        t.src_server = st.src;
        t.dst_server = st.dst;
        t.path = paths[p];
        t.rate = path_flow[p];
        per_subtask[i].push_back(std::move(t));
      }
    }
  });
  for (std::vector<TransferAssignment>& transfers : per_subtask) {
    for (TransferAssignment& t : transfers) {
      decision.transfers.push_back(std::move(t));
    }
  }
  decision.merge_cpu_seconds += ProcessCpuSeconds() - solve_cpu_end;
}

std::vector<int64_t> SplitBlocksAcrossPaths(int64_t num_blocks,
                                            const std::vector<double>& path_flow) {
  std::vector<int64_t> counts(path_flow.size(), 0);
  if (num_blocks <= 0 || path_flow.empty()) {
    return counts;
  }
  double total = 0.0;
  size_t largest = 0;
  for (size_t p = 0; p < path_flow.size(); ++p) {
    total += path_flow[p];
    if (path_flow[p] > path_flow[largest]) {
      largest = p;
    }
  }
  if (total <= kFluidEpsilon || path_flow[largest] <= kFluidEpsilon) {
    return counts;  // No path carries a meaningful rate.
  }
  // Provisional floor allocation; the largest-rate path absorbs rounding.
  int64_t assigned = 0;
  for (size_t p = 0; p < path_flow.size(); ++p) {
    counts[p] = static_cast<int64_t>(static_cast<double>(num_blocks) * path_flow[p] / total);
    assigned += counts[p];
  }
  counts[largest] += num_blocks - assigned;
  // Re-credit pass: blocks floored onto a zero-rate path would never move,
  // so hand them to the largest-rate path BEFORE any transfer is emitted.
  // (Re-crediting during emission silently dropped them whenever the
  // zero-rate path followed the largest in iteration order.)
  for (size_t p = 0; p < path_flow.size(); ++p) {
    if (p != largest && counts[p] > 0 && path_flow[p] <= kFluidEpsilon) {
      counts[largest] += counts[p];
      counts[p] = 0;
    }
  }
  return counts;
}

CycleDecision ControllerAlgorithm::Decide(int64_t cycle, const ReplicaState& state,
                                          const std::vector<Rate>& residual_capacities,
                                          const DeliveryKeySet& in_flight) {
  CycleDecision decision;
  decision.cycle = cycle;

  auto t0 = std::chrono::steady_clock::now();
  const double select_cpu0 = ProcessCpuSeconds();
  std::vector<Selected> selected;
  {
    BDS_TIMED_SCOPE("scheduler.schedule");
    selected = ScheduleBlocks(state, residual_capacities, in_flight);
  }
  decision.select_cpu_seconds = ProcessCpuSeconds() - select_cpu0;
  decision.scheduled_blocks = static_cast<int64_t>(selected.size());
  decision.scheduling_seconds = SecondsSince(t0);

  auto t1 = std::chrono::steady_clock::now();
  {
    BDS_TIMED_SCOPE("scheduler.route");
    RouteBlocks(std::move(selected), residual_capacities, decision);
  }
  decision.routing_seconds = SecondsSince(t1);
  return decision;
}

}  // namespace bds
