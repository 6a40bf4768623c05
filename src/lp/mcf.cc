#include "src/lp/mcf.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/lp/lp_problem.h"
#include "src/lp/mcf_internal.h"
#include "src/telemetry/telemetry.h"

namespace bds {

using mcf_internal::FlatMcf;
using mcf_internal::FlattenMcf;
using mcf_internal::FptasWorkspace;

McfResult SolveMcfSimplex(const McfInstance& instance, const SimplexOptions& options) {
  McfResult result;
  result.flow.resize(static_cast<size_t>(instance.num_commodities()));

  LpProblem lp;
  // One variable per (commodity, path).
  std::vector<std::vector<int>> var(static_cast<size_t>(instance.num_commodities()));
  for (int c = 0; c < instance.num_commodities(); ++c) {
    const McfCommodity& com = instance.commodities[static_cast<size_t>(c)];
    var[static_cast<size_t>(c)].resize(com.paths.size());
    result.flow[static_cast<size_t>(c)].assign(com.paths.size(), 0.0);
    for (size_t p = 0; p < com.paths.size(); ++p) {
      var[static_cast<size_t>(c)][p] = lp.AddVariable(/*objective=*/1.0);
    }
  }
  // Link capacity rows.
  std::vector<std::vector<LpTerm>> link_terms(static_cast<size_t>(instance.num_links()));
  for (int c = 0; c < instance.num_commodities(); ++c) {
    const McfCommodity& com = instance.commodities[static_cast<size_t>(c)];
    for (size_t p = 0; p < com.paths.size(); ++p) {
      for (int l : com.paths[p].links) {
        BDS_CHECK(l >= 0 && l < instance.num_links());
        link_terms[static_cast<size_t>(l)].push_back(
            {var[static_cast<size_t>(c)][p], 1.0});
      }
    }
  }
  for (int l = 0; l < instance.num_links(); ++l) {
    if (!link_terms[static_cast<size_t>(l)].empty()) {
      lp.AddConstraint(link_terms[static_cast<size_t>(l)], Relation::kLessEqual,
                       instance.capacities[static_cast<size_t>(l)]);
    }
  }
  // Demand rows.
  for (int c = 0; c < instance.num_commodities(); ++c) {
    const McfCommodity& com = instance.commodities[static_cast<size_t>(c)];
    if (com.demand >= 0.0 && !com.paths.empty()) {
      std::vector<LpTerm> terms;
      for (size_t p = 0; p < com.paths.size(); ++p) {
        terms.push_back({var[static_cast<size_t>(c)][p], 1.0});
      }
      lp.AddConstraint(std::move(terms), Relation::kLessEqual, com.demand);
    }
  }

  LpSolution sol = SolveSimplex(lp, options);
  if (!sol.optimal()) {
    return result;  // ok stays false.
  }
  result.ok = true;
  result.total_flow = sol.objective_value;
  for (int c = 0; c < instance.num_commodities(); ++c) {
    for (size_t p = 0; p < result.flow[static_cast<size_t>(c)].size(); ++p) {
      result.flow[static_cast<size_t>(c)][p] =
          std::max(0.0, sol.values[static_cast<size_t>(var[static_cast<size_t>(c)][p])]);
    }
  }
  return result;
}

// The tuned solver: Fleischer's phase structure over a flat CSR form with
// incrementally maintained lower bounds. The loop itself lives in
// mcf_internal::RunFptasPushLoop. The push sequence — and therefore every
// per-path flow — is bit-identical to the straightforward Fleischer loop
// (tests/oracles.cc, checked by the parity property tests): when a commodity
// IS consulted, its path lengths are recomputed by fresh scans in link order
// (the identical floating-point sums), the packed records only reorder
// provably-equal arithmetic (pad adds of +0.0, hoisted shared loads, a push
// that multiplies the lengths its scan just loaded), and the cached minimum
// only skips scans whose outcome is proved.
McfResult SolveMcfFptas(const McfInstance& instance, double epsilon) {
  BDS_CHECK_MSG(epsilon > 0.0 && epsilon <= 0.5, "epsilon must be in (0, 0.5]");
  BDS_TIMED_SCOPE("fptas.solve");
  McfResult result = mcf_internal::MakeEmptyFptasResult(instance);
  const FlatMcf flat = FlattenMcf(instance);
  result.ok = true;
  if (flat.paths.empty()) {
    return result;  // Nothing can flow.
  }

  const double delta = mcf_internal::FptasDelta(flat, epsilon);
  FptasWorkspace ws(flat, epsilon);
  std::vector<double> length = mcf_internal::InitialLengths(flat, delta);
  std::vector<double> raw_flow(ws.num_paths, 0.0);

  const int64_t max_pushes = mcf_internal::MaxPushes(flat, epsilon, delta);
  mcf_internal::FptasLoopStats stats = mcf_internal::RunFptasPushLoop(
      flat, ws, epsilon, delta, max_pushes, length, raw_flow);

  BDS_TELEMETRY_COUNT("fptas.solves", 1);
  BDS_TELEMETRY_COUNT("fptas.pushes", stats.pushes);
  BDS_TELEMETRY_COUNT("fptas.phases", stats.phases);
  BDS_TELEMETRY_COUNT("fptas.bound_skips", stats.bound_skips);
  BDS_TELEMETRY_COUNT("fptas.commodities_retired", stats.commodities_retired);
  BDS_TELEMETRY_COUNT("fptas.packed_commodities", static_cast<int64_t>(ws.packed.size()));
  BDS_TELEMETRY_COUNT("fptas.generic_commodities", ws.generic_commodities);
  telemetry::TraceInstant("fptas.solve", "lp",
                          {{"commodities", static_cast<double>(ws.num_commodities)},
                           {"paths", static_cast<double>(ws.num_paths)},
                           {"pushes", static_cast<double>(stats.pushes)},
                           {"phases", static_cast<double>(stats.phases)}});
  mcf_internal::FinalizeFptas(flat, epsilon, delta, raw_flow, result);
  return result;
}

double MaxCapacityViolation(const McfInstance& instance, const McfResult& result) {
  std::vector<double> load(static_cast<size_t>(instance.num_links()), 0.0);
  std::vector<double> commodity_total(static_cast<size_t>(instance.num_commodities()), 0.0);
  for (int c = 0; c < instance.num_commodities(); ++c) {
    const McfCommodity& com = instance.commodities[static_cast<size_t>(c)];
    for (size_t p = 0; p < com.paths.size(); ++p) {
      double f = result.flow[static_cast<size_t>(c)][p];
      commodity_total[static_cast<size_t>(c)] += f;
      for (int l : com.paths[p].links) {
        load[static_cast<size_t>(l)] += f;
      }
    }
  }
  double worst = 0.0;
  for (int l = 0; l < instance.num_links(); ++l) {
    double capacity = instance.capacities[static_cast<size_t>(l)];
    if (capacity <= 0.0) {
      if (load[static_cast<size_t>(l)] > 0.0) {
        worst = std::max(worst, 1.0);
      }
      continue;
    }
    worst = std::max(worst, (load[static_cast<size_t>(l)] - capacity) / capacity);
  }
  for (int c = 0; c < instance.num_commodities(); ++c) {
    double demand = instance.commodities[static_cast<size_t>(c)].demand;
    if (demand >= 0.0 && demand > 0.0) {
      worst = std::max(worst, (commodity_total[static_cast<size_t>(c)] - demand) / demand);
    } else if (demand == 0.0 && commodity_total[static_cast<size_t>(c)] > 0.0) {
      worst = std::max(worst, 1.0);
    }
  }
  return std::max(0.0, worst);
}

}  // namespace bds
