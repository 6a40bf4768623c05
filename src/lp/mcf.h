// Path-based multicommodity flow.
//
// BDS's routing step (§4.4) maximizes the total volume sent per cycle across
// explicitly enumerated overlay paths, subject to link capacities and
// per-commodity demands (a block only has ρ(b) bytes to send). Two solvers:
//
//  * SolveMcfSimplex — exact LP, used as ground truth and as the slow
//    baseline;
//  * SolveMcfFptas   — the Garg–Könemann / Fleischer width-independent FPTAS
//    the paper adopts ([17,18] in §4.4), returning a (1-eps)-optimal flow in
//    time independent of the number of commodities. It is the controller's
//    one routing driver, for every shard and thread count: one solve per
//    cycle, single-threaded, from a cold start.

#ifndef BDS_SRC_LP_MCF_H_
#define BDS_SRC_LP_MCF_H_

#include <vector>

#include "src/common/status.h"
#include "src/lp/simplex.h"

namespace bds {

struct McfPath {
  // Indices into McfInstance::capacities.
  std::vector<int> links;
};

struct McfCommodity {
  // Upper bound on this commodity's total flow; < 0 means uncapped.
  double demand = -1.0;
  std::vector<McfPath> paths;
};

struct McfInstance {
  std::vector<double> capacities;
  std::vector<McfCommodity> commodities;

  int num_links() const { return static_cast<int>(capacities.size()); }
  int num_commodities() const { return static_cast<int>(commodities.size()); }
  int num_paths() const;
};

struct McfResult {
  bool ok = false;
  double total_flow = 0.0;
  // flow[c][p] = flow on commodity c's p-th path.
  std::vector<std::vector<double>> flow;
};

// Exact solution via the dense simplex. Exponentially slower than the FPTAS
// as instances grow; intended for verification and Fig 13a's baseline curve.
McfResult SolveMcfSimplex(const McfInstance& instance, const SimplexOptions& options = {});

// Garg–Könemann FPTAS: total flow >= (1 - epsilon) * optimum, capacities and
// demands respected exactly. epsilon in (0, 0.5].
//
// The default solver runs Fleischer's phase structure over a flat CSR form
// with incrementally maintained lower bounds: path links, per-link weight
// factors, and bottleneck capacities are precomputed once; commodities of the
// controller's shape (1–3 paths sharing uplink, downlink and a private demand
// edge) get one packed record each, a branch-free scan and a post-push
// demand-edge bound that skips the confirmation rescan; every other commodity
// takes a plain CSR scan; a per-commodity cached minimum retires or skips
// commodities whole phases at a time. The push sequence — and therefore
// every per-path flow — is bit-identical to the straightforward Fleischer
// loop kept as a test oracle (tests/oracles.h; see the parity property
// tests).
McfResult SolveMcfFptas(const McfInstance& instance, double epsilon = 0.1);

// Validation helper shared by tests: largest relative link-capacity
// violation of `result` against `instance` (0 = fully feasible).
double MaxCapacityViolation(const McfInstance& instance, const McfResult& result);

}  // namespace bds

#endif  // BDS_SRC_LP_MCF_H_
