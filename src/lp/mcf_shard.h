// Sharded Fleischer FPTAS: per-shard push loops + deterministic merge under
// the global capacity budget.
//
// The controller's MCF couples commodities only through shared link lengths,
// so commodities whose path link sets never overlap evolve completely
// independently inside the multiplicative-weights loop. The sharded solver
// exploits exactly that seam:
//
//  1. Flatten the instance ONCE (global FlatMcf) — every derived constant
//     (delta, the alpha phase ladder, the push budget, the finalize scale)
//     is the global instance's, shared by every shard.
//  2. Union-find link-sharing components over the flattened paths; a
//     commodity's paths (and its demand edge) always land in one component.
//  3. Deterministically pack components into at most `num_shards` groups
//     (largest-weight-first onto the lightest group, ties by lowest group),
//     each group's commodity list kept in ascending id order.
//  4. Run mcf_internal::RunFptasPushLoop per group on the ParallelRunner,
//     each group against its own private copy of the length vector, all
//     groups accumulating into one position-addressed raw-flow array.
//  5. Merge with one global FinalizeFptas: rescale + normalize the combined
//     raw flow by the worst edge utilization (the per-link budget split —
//     proportional, hence order-independent) and run the two bounded greedy
//     augmentation rounds in global path order (the rebalance of under-used
//     links).
//
// Because groups are link-disjoint, step 4's pushes are bit-identical to the
// unsharded loop's (RunFptasPushLoop's parity contract) and step 5 consumes
// a bitwise-equal raw-flow array — so the returned result equals
// SolveMcfFptas's bit for bit, for ANY shard count and thread count. The
// per-group push budget is counted per group, so a run whose summed pushes
// reach MaxPushes (never observed outside adversarial inputs) is discarded
// and redone as one serial loop, which keeps even wedged runs bit-identical.
//
// When the instance is one giant component (heavily contended links
// everywhere), link-disjoint decomposition yields a single group and the
// solve is effectively unsharded.

#ifndef BDS_SRC_LP_MCF_SHARD_H_
#define BDS_SRC_LP_MCF_SHARD_H_

#include <cstdint>

#include "src/common/parallel.h"
#include "src/lp/mcf.h"

namespace bds {

struct McfShardOptions {
  int num_shards = 1;
  // Test seam: replaces the MaxPushes-derived push budget when > 0, forcing
  // the wedge path on small instances. 0 = the real budget.
  int64_t max_pushes_override = 0;
};

struct McfShardStats {
  int num_components = 0;    // Link-sharing components found.
  int num_groups = 0;        // Groups actually solved (<= num_shards).
  int largest_group_paths = 0;
  // The summed group pushes reached the global budget, so the sharded run
  // was discarded and redone as one serial loop (bitwise equal to the
  // unsharded solver's wedged run).
  bool wedge_rerun = false;
  int64_t pushes = 0;        // Summed over groups (final run if rerun).
  int64_t seeded_commodities = 0;  // Warm start: commodities with a seed.
  int64_t phases_skipped = 0;      // Warm start: alpha phases fast-forwarded.
  double solve_seconds = 0.0;  // CPU time in the per-group push loops.
  double merge_seconds = 0.0;  // CPU time in the global finalize/merge.
};

// Drop-in replacement for SolveMcfFptas(instance, epsilon): same result, bit
// for bit (see file commentary). `pool` may be null (serial). `stats` is
// optional.
//
// `warm` (optional) seeds every group's multiplicative-weights state from a
// previous solve's finalized flows (see McfWarmSeed in mcf.h). The seed and
// the alpha-ladder entry are computed ONCE from the global instance, so a
// warm solve remains bitwise-invariant to the shard count — though not
// bitwise-equal to the cold solve (relaxed parity, DESIGN.md §9.7).
McfResult SolveMcfFptasSharded(const McfInstance& instance, double epsilon,
                               const McfShardOptions& options, ParallelRunner* pool,
                               McfShardStats* stats = nullptr,
                               const McfWarmSeed* warm = nullptr,
                               McfWarmInfo* warm_info = nullptr);

}  // namespace bds

#endif  // BDS_SRC_LP_MCF_SHARD_H_
