// Shared internals of the Fleischer/Garg–Könemann FPTAS solvers.
//
// SolveMcfFptas and the reference loop kept as a test oracle
// (tests/oracles.cc) run the same multiplicative-weights dynamics over the
// same flattened instance; this header exposes the pieces they share:
//
//  * FlatMcf / FlattenMcf — the flattened form (demands reduced to virtual
//    edges, dead paths dropped). Every derived constant of the algorithm —
//    delta, the alpha phase ladder, the push budget, the finalize scale —
//    is a function of THIS struct, so two solvers sharing one FlatMcf share
//    the exact numeric trajectory.
//  * FptasWorkspace — the tuned solver's packed commodity records and CSR
//    layout, precomputed once per instance.
//  * RunFptasPushLoop — the tuned phase loop over every commodity.
//  * FinalizeFptas — theoretical rescale + global feasibility normalization
//    + two greedy augmentation rounds; a pure function of (flat, raw_flow).
//
// Everything here is an implementation detail: no stability promised.

#ifndef BDS_SRC_LP_MCF_INTERNAL_H_
#define BDS_SRC_LP_MCF_INTERNAL_H_

#include <cstdint>
#include <vector>

#include "src/lp/mcf.h"

namespace bds {
namespace mcf_internal {

// Flattened form of an McfInstance: paths with one virtual "demand edge"
// appended per capped commodity so demands reduce to ordinary capacities
// (standard reduction). Dead paths (through a zero-capacity edge) are
// dropped here so every solver sees the same path set.
struct FlatPath {
  int commodity;
  int path_index;
  std::vector<int> links;  // Includes the virtual demand edge if any.
};

struct FlatMcf {
  std::vector<double> cap;
  std::vector<FlatPath> paths;
  // Flattened path ids grouped by commodity, in path order.
  std::vector<std::vector<int>> commodity_paths;
  size_t max_len = 1;

  size_t num_edges() const { return cap.size(); }
};

FlatMcf FlattenMcf(const McfInstance& instance);

// Garg–Könemann initialization; depends on the flattened edge count.
double FptasDelta(const FlatMcf& flat, double epsilon);

// Push-count cap shared by the solvers (bounds a wedged multiplicative-
// weights loop; generous against the theoretical phase bound).
int64_t MaxPushes(const FlatMcf& flat, double epsilon, double delta);

// An all-zero result shaped like `instance` (ok stays false).
McfResult MakeEmptyFptasResult(const McfInstance& instance);

// Theoretical scaling, then exact feasibility normalization: divide by the
// worst edge utilization so no capacity or demand is exceeded, then top each
// path up with its residual slack (two greedy rounds in global path order),
// making the final flow maximal. Scatters into `result` and accumulates
// total_flow.
void FinalizeFptas(const FlatMcf& flat, double epsilon, double delta,
                   std::vector<double>& raw_flow, McfResult& result);

// The controller's commodity shape, packed into one contiguous record:
// 1–3 paths that share their first link (uplink), penultimate link
// (downlink) and last link (the commodity's private demand edge), each with
// at most two middle links. Every path has five slots, in link order: first,
// two middles, penultimate, last. A short middle is padded with the 0.0 pad
// edge and a missing path with the +inf pad edge (see InitialLengths), so one
// unrolled scan sums every shape to the bits of a plain link-order scan.
struct PackedCommodity {
  int32_t first = 0;
  int32_t penult = 0;
  int32_t last = 0;
  int32_t path[3] = {-1, -1, -1};  // Flat path ids; -1 for a missing path.
  int32_t mid[6] = {};             // Path k's middle links: mid[2k], mid[2k+1].
  // RunFptasPushLoop's state, reset at its entry and scattered at its exit:
  // the demand edge's length (no other commodity touches that edge) and the
  // raw flow pushed on each path.
  double len_last = 0.0;
  double flow[3] = {0.0, 0.0, 0.0};
  double bneck[3] = {0.0, 0.0, 0.0};  // Static bottleneck capacity per path.
  double fac[3][5] = {};              // Per-slot length multiplier of a push.
};

// Precomputed tables for RunFptasPushLoop: a packed record per
// controller-shaped commodity, the CSR layout every other commodity is
// scanned through. Pure function of (flat, epsilon), except the records'
// loop state.
struct FptasWorkspace {
  FptasWorkspace(const FlatMcf& flat, double epsilon);

  size_t num_edges = 0;
  size_t num_paths = 0;
  size_t num_commodities = 0;
  // CSR: path i's links at path_links[path_off[i] .. path_off[i+1]).
  std::vector<int32_t> path_off;
  std::vector<int32_t> path_links;
  std::vector<double> path_factor;  // Per-link length multiplier of a push.
  std::vector<double> path_bneck;   // Static bottleneck capacity per path.
  // CSR: commodity c's path ids at cp_ids[cp_off[c] .. cp_off[c+1]).
  std::vector<int32_t> cp_off;
  std::vector<int32_t> cp_ids;
  // Commodity c's index into `packed`, or -1 when it takes the CSR scan.
  std::vector<int32_t> com_record;
  std::vector<PackedCommodity> packed;
  int64_t generic_commodities = 0;  // Commodities with paths but no record.
};

// The push loop's starting edge lengths, delta / capacity per edge, plus the
// two pad edges the packed records point at: index num_edges (0.0) and
// num_edges + 1 (+inf).
std::vector<double> InitialLengths(const FlatMcf& flat, double delta);

struct FptasLoopStats {
  int64_t pushes = 0;
  int64_t phases = 0;
  int64_t bound_skips = 0;
  int64_t commodities_retired = 0;
};

// The tuned Fleischer phase loop over every commodity (commodities without
// paths are skipped). Reads and multiplies `length` (as built by
// InitialLengths) and accumulates into `raw_flow` (size flat.paths.size(),
// zero on entry). delta and max_pushes come from FptasDelta / MaxPushes.
FptasLoopStats RunFptasPushLoop(const FlatMcf& flat, FptasWorkspace& ws,
                                double epsilon, double delta, int64_t max_pushes,
                                std::vector<double>& length,
                                std::vector<double>& raw_flow);

}  // namespace mcf_internal
}  // namespace bds

#endif  // BDS_SRC_LP_MCF_INTERNAL_H_
