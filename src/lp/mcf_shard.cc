#include "src/lp/mcf_shard.h"

#include <ctime>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/lp/mcf_internal.h"
#include "src/telemetry/telemetry.h"

namespace bds {

namespace {

using mcf_internal::FlatMcf;
using mcf_internal::FptasWorkspace;

double ProcessCpuSeconds() {
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Union-find over flat edge ids with path halving; deterministic (no ranks —
// the root is always the smallest-id edge merged first? No: union by
// attaching b's root under a's root, so roots depend only on merge order,
// which is the deterministic path scan order).
struct UnionFind {
  explicit UnionFind(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int Find(int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) {
      parent[static_cast<size_t>(b)] = a;
    }
  }
  std::vector<int> parent;
};

struct Group {
  std::vector<int32_t> commodities;  // Ascending global ids.
  int64_t weight = 0;                // Total path-link count (work proxy).
};

}  // namespace

McfResult SolveMcfFptasSharded(const McfInstance& instance, double epsilon,
                               const McfShardOptions& options, ParallelRunner* pool,
                               McfShardStats* stats, const McfWarmSeed* warm,
                               McfWarmInfo* warm_info) {
  BDS_CHECK_MSG(epsilon > 0.0 && epsilon <= 0.5, "epsilon must be in (0, 0.5]");
  BDS_CHECK_MSG(options.num_shards >= 1, "num_shards must be >= 1");
  BDS_TIMED_SCOPE("fptas.sharded");
  McfShardStats local_stats;
  McfShardStats& st = stats != nullptr ? *stats : local_stats;
  st = McfShardStats{};
  if (warm_info != nullptr) {
    *warm_info = McfWarmInfo{};
  }

  McfResult result = mcf_internal::MakeEmptyFptasResult(instance);
  const FlatMcf flat = mcf_internal::FlattenMcf(instance);
  result.ok = true;
  if (flat.paths.empty()) {
    return result;  // Nothing can flow.
  }

  const size_t num_commodities = flat.commodity_paths.size();
  // Per-commodity work weight: its total path-link count (the push loop's
  // scan cost is linear in it).
  std::vector<int64_t> com_weight(num_commodities, 0);
  for (const mcf_internal::FlatPath& p : flat.paths) {
    com_weight[static_cast<size_t>(p.commodity)] +=
        static_cast<int64_t>(p.links.size());
  }

  // Partition commodities into link-disjoint groups. Commodities never
  // sharing an edge (directly or transitively) cannot influence each other's
  // lengths, so their push loops commute — the parity seam.
  std::vector<Group> groups;
  if (options.num_shards <= 1) {
    Group all;
    for (size_t c = 0; c < num_commodities; ++c) {
      if (!flat.commodity_paths[c].empty()) {
        all.commodities.push_back(static_cast<int32_t>(c));
        all.weight += com_weight[c];
      }
    }
    groups.push_back(std::move(all));
    st.num_components = 1;
  } else {
    UnionFind uf(flat.num_edges());
    for (const std::vector<int>& cpaths : flat.commodity_paths) {
      if (cpaths.empty()) {
        continue;
      }
      // Unify every edge of every path of the commodity with its first edge
      // (a capped commodity's demand edge would do this implicitly; uncapped
      // multi-path commodities need the cross-path union too).
      const int anchor = flat.paths[static_cast<size_t>(cpaths[0])].links[0];
      for (int pi : cpaths) {
        for (int l : flat.paths[static_cast<size_t>(pi)].links) {
          uf.Union(anchor, l);
        }
      }
    }
    // Components in order of first appearance over ascending commodity ids.
    std::vector<int> root_to_component(flat.num_edges(), -1);
    struct Component {
      std::vector<int32_t> commodities;
      int64_t weight = 0;
    };
    std::vector<Component> components;
    for (size_t c = 0; c < num_commodities; ++c) {
      if (flat.commodity_paths[c].empty()) {
        continue;
      }
      const int root =
          uf.Find(flat.paths[static_cast<size_t>(flat.commodity_paths[c][0])].links[0]);
      int& comp = root_to_component[static_cast<size_t>(root)];
      if (comp < 0) {
        comp = static_cast<int>(components.size());
        components.emplace_back();
      }
      components[static_cast<size_t>(comp)].commodities.push_back(static_cast<int32_t>(c));
      components[static_cast<size_t>(comp)].weight += com_weight[c];
    }
    st.num_components = static_cast<int>(components.size());

    // Deterministic packing: components by (weight desc, first commodity
    // asc) onto the currently lightest group (ties -> lowest group index).
    const int num_groups =
        std::max(1, std::min<int>(options.num_shards, static_cast<int>(components.size())));
    groups.resize(static_cast<size_t>(num_groups));
    std::vector<int> order(components.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const Component& ca = components[static_cast<size_t>(a)];
      const Component& cb = components[static_cast<size_t>(b)];
      if (ca.weight != cb.weight) {
        return ca.weight > cb.weight;
      }
      return ca.commodities[0] < cb.commodities[0];
    });
    for (int ci : order) {
      size_t lightest = 0;
      for (size_t g = 1; g < groups.size(); ++g) {
        if (groups[g].weight < groups[lightest].weight) {
          lightest = g;
        }
      }
      Component& comp = components[static_cast<size_t>(ci)];
      groups[lightest].commodities.insert(groups[lightest].commodities.end(),
                                          comp.commodities.begin(), comp.commodities.end());
      groups[lightest].weight += comp.weight;
    }
    // The push loop consults a group's commodities in list order; ascending
    // ids reproduce the unsharded solver's round-robin order within the
    // group (required for parity).
    for (Group& g : groups) {
      std::sort(g.commodities.begin(), g.commodities.end());
    }
  }
  st.num_groups = static_cast<int>(groups.size());

  // Shared constants and workspace: all derived from the GLOBAL flat
  // instance, so every group walks the same delta / alpha ladder / factor
  // tables the unsharded solver would.
  const double delta = mcf_internal::FptasDelta(flat, epsilon);
  const int64_t max_pushes = options.max_pushes_override > 0
                                 ? options.max_pushes_override
                                 : mcf_internal::MaxPushes(flat, epsilon, delta);
  const FptasWorkspace ws(flat, epsilon);

  // Warm start: seed raw flow / lengths / cached minima / the alpha-ladder
  // entry ONCE from the global instance. Every group starts from a private
  // copy of the seeded length vector, so the warm result stays
  // bitwise-invariant to the shard count.
  const bool use_warm = warm != nullptr && !warm->empty();
  mcf_internal::FptasWarmState wstate;
  if (use_warm) {
    wstate = mcf_internal::SeedFptasWarmState(instance, flat, ws, epsilon, delta, *warm);
    st.seeded_commodities = wstate.seeded_commodities;
    st.phases_skipped = wstate.phases_skipped;
    if (warm_info != nullptr) {
      warm_info->used = wstate.seeded_commodities > 0;
      warm_info->seeded_commodities = wstate.seeded_commodities;
      warm_info->phases_skipped = wstate.phases_skipped;
    }
  }
  auto init_length = [&](std::vector<double>& length) {
    if (use_warm) {
      length = wstate.length;
      return;
    }
    length.assign(ws.num_edges + 1, 0.0);
    for (size_t l = 0; l < ws.num_edges; ++l) {
      length[l] = delta / flat.cap[l];
    }
  };

  std::vector<double> raw_flow(ws.num_paths, 0.0);
  std::vector<mcf_internal::FptasLoopStats> group_stats(groups.size());
  int largest_paths = 0;
  for (const Group& g : groups) {
    int paths = 0;
    for (int32_t c : g.commodities) {
      paths += ws.cp_off[static_cast<size_t>(c) + 1] - ws.cp_off[static_cast<size_t>(c)];
    }
    largest_paths = std::max(largest_paths, paths);
  }
  st.largest_group_paths = largest_paths;

  // Cross-group advisory budget: once the groups' summed pushes reach the
  // global cap the run is wedged (the deterministic predicate checked after
  // the join below), its result will be discarded, and the remaining groups
  // only burn CPU — so they may abort early. The abort can only fire when
  // the predicate is already guaranteed true, so results never depend on its
  // timing (see FptasLoopControl).
  std::atomic<int64_t> shared_pushes{0};
  const double t_solve = ProcessCpuSeconds();
  auto solve_group = [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) {
      // Private length vector per group (plus the sentinel slot, pinned to
      // 0.0): initialized exactly like the unsharded solver's, and since the
      // group's commodities are link-disjoint from every other group's, the
      // entries it reads evolve identically to the global run's.
      std::vector<double> length;
      init_length(length);
      mcf_internal::FptasLoopControl control;
      if (use_warm) {
        control.alpha_start = wstate.alpha_start;
        control.cached_min_seed = &wstate.cached_min;
      }
      if (groups.size() > 1) {
        control.shared_pushes = &shared_pushes;
        control.shared_max_pushes = max_pushes;
      }
      group_stats[g] = mcf_internal::RunFptasPushLoop(flat, ws, epsilon, delta, max_pushes,
                                                      groups[g].commodities, length, raw_flow,
                                                      &control);
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && groups.size() > 1) {
    std::vector<int64_t> weights(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      weights[g] = groups[g].weight;
    }
    pool->ForWeighted(weights, solve_group);
  } else {
    solve_group(0, groups.size());
  }

  for (const mcf_internal::FptasLoopStats& gs : group_stats) {
    st.pushes += gs.pushes;
  }

  // Wedge re-run: the per-group budget is counted per call, so a multi-group
  // run whose SUMMED pushes reach the global cap may have cut off at
  // different pushes than the unsharded loop would. Such runs are discarded
  // and redone as one serial all-commodity loop — the exact unsharded
  // (cold or warm) solve, bit for bit. Never taken outside adversarial
  // inputs or a tiny max_pushes_override.
  if (groups.size() > 1 && st.pushes >= max_pushes) {
    st.wedge_rerun = true;
    std::fill(raw_flow.begin(), raw_flow.end(), 0.0);
    std::vector<int32_t> all_commodities;
    all_commodities.reserve(num_commodities);
    for (size_t c = 0; c < num_commodities; ++c) {
      if (!flat.commodity_paths[c].empty()) {
        all_commodities.push_back(static_cast<int32_t>(c));
      }
    }
    std::vector<double> length;
    init_length(length);
    mcf_internal::FptasLoopControl control;
    if (use_warm) {
      control.alpha_start = wstate.alpha_start;
      control.cached_min_seed = &wstate.cached_min;
    }
    const mcf_internal::FptasLoopStats rerun = mcf_internal::RunFptasPushLoop(
        flat, ws, epsilon, delta, max_pushes, all_commodities, length, raw_flow, &control);
    st.pushes = rerun.pushes;
  }
  const double t_merge = ProcessCpuSeconds();
  st.solve_seconds = t_merge - t_solve;

  // The merge: one global finalize over the combined raw flow — rescale,
  // normalize by the worst edge utilization (per-link proportional budget
  // split; order-independent), then the two greedy augmentation rounds in
  // global path order (the bounded rebalance of under-used links).
  mcf_internal::FinalizeFptas(flat, epsilon, delta, raw_flow, result);
  st.merge_seconds = ProcessCpuSeconds() - t_merge;

  BDS_TELEMETRY_COUNT("fptas.sharded.solves", 1);
  BDS_TELEMETRY_COUNT("fptas.sharded.pushes", st.pushes);
  BDS_TELEMETRY_COUNT("fptas.sharded.groups", st.num_groups);
  BDS_TELEMETRY_COUNT("fptas.sharded.components", st.num_components);
  if (st.wedge_rerun) {
    BDS_TELEMETRY_COUNT("fptas.sharded.wedge_reruns", 1);
  }
  if (use_warm) {
    BDS_TELEMETRY_COUNT("fptas.warm.solves", 1);
    BDS_TELEMETRY_COUNT("fptas.warm.seeded_commodities", st.seeded_commodities);
    BDS_TELEMETRY_COUNT("fptas.warm.phases_skipped", st.phases_skipped);
  }
  telemetry::TraceInstant("fptas.sharded", "lp",
                          {{"groups", static_cast<double>(st.num_groups)},
                           {"components", static_cast<double>(st.num_components)},
                           {"pushes", static_cast<double>(st.pushes)}});
  return result;
}

}  // namespace bds
