// Dense two-phase primal simplex.
//
// Exact (up to floating point) LP solver used (a) to verify the FPTAS on
// small instances, and (b) as the paper's "standard LP" baseline whose
// running time blows up with problem size (Fig 13a). Dantzig pricing with a
// switch to Bland's rule near the iteration cap for anti-cycling.

#ifndef BDS_SRC_LP_SIMPLEX_H_
#define BDS_SRC_LP_SIMPLEX_H_

#include <cstdint>

#include "src/lp/lp_problem.h"

namespace bds {

struct SimplexOptions {
  int64_t max_iterations = 1'000'000;  // Paper's linprog cap (§6.3.4) is 1e6.
};

// Solves `problem`; x >= 0 is implicit, upper bounds become extra rows.
LpSolution SolveSimplex(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace bds

#endif  // BDS_SRC_LP_SIMPLEX_H_
