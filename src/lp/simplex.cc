#include "src/lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/status.h"

namespace bds {

namespace {

// Pivot, ratio-test and feasibility tolerance.
constexpr double kEps = 1e-9;

// Full-tableau simplex state. Columns: structural variables first, then
// slacks/surpluses, then artificials; the last column is the RHS.
struct Tableau {
  int rows = 0;
  int cols = 0;  // Excluding RHS.
  std::vector<std::vector<double>> a;  // rows x (cols + 1)
  std::vector<double> reduced;         // cols + 1; last entry = objective value.
  std::vector<int> basis;              // Basic variable of each row.
};

void Pivot(Tableau& t, int prow, int pcol) {
  double pivot = t.a[prow][pcol];
  double inv = 1.0 / pivot;
  for (int j = 0; j <= t.cols; ++j) {
    t.a[prow][j] *= inv;
  }
  t.a[prow][pcol] = 1.0;  // Kill accumulated rounding error on the pivot.
  for (int i = 0; i < t.rows; ++i) {
    if (i == prow) {
      continue;
    }
    double factor = t.a[i][pcol];
    if (factor == 0.0) {
      continue;
    }
    for (int j = 0; j <= t.cols; ++j) {
      t.a[i][j] -= factor * t.a[prow][j];
    }
    t.a[i][pcol] = 0.0;
  }
  double rfactor = t.reduced[pcol];
  if (rfactor != 0.0) {
    for (int j = 0; j <= t.cols; ++j) {
      t.reduced[j] -= rfactor * t.a[prow][j];
    }
    t.reduced[pcol] = 0.0;
  }
  t.basis[prow] = pcol;
}

// Maximizes the objective encoded in t.reduced. Returns the outcome;
// accumulates pivot count into *iterations.
LpOutcome RunPhase(Tableau& t, const SimplexOptions& options, int64_t* iterations) {
  // Bland's rule (anti-cycling) kicks in for the last stretch of the budget.
  const int64_t bland_after = options.max_iterations * 9 / 10;
  for (;;) {
    if (*iterations >= options.max_iterations) {
      return LpOutcome::kIterationLimit;
    }
    bool bland = *iterations >= bland_after;

    // Entering variable: positive reduced cost (improves a maximization).
    int pcol = -1;
    if (bland) {
      for (int j = 0; j < t.cols; ++j) {
        if (t.reduced[j] > kEps) {
          pcol = j;
          break;
        }
      }
    } else {
      double best = kEps;
      for (int j = 0; j < t.cols; ++j) {
        if (t.reduced[j] > best) {
          best = t.reduced[j];
          pcol = j;
        }
      }
    }
    if (pcol < 0) {
      return LpOutcome::kOptimal;
    }

    // Leaving variable: minimum ratio test.
    int prow = -1;
    double best_ratio = 0.0;
    for (int i = 0; i < t.rows; ++i) {
      if (t.a[i][pcol] > kEps) {
        double ratio = t.a[i][t.cols] / t.a[i][pcol];
        if (prow < 0 || ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && t.basis[i] < t.basis[prow])) {
          prow = i;
          best_ratio = ratio;
        }
      }
    }
    if (prow < 0) {
      return LpOutcome::kUnbounded;
    }
    Pivot(t, prow, pcol);
    ++*iterations;
  }
}

}  // namespace

LpSolution SolveSimplex(const LpProblem& problem, const SimplexOptions& options) {
  LpSolution solution;
  const int n = problem.num_variables();

  // Collect rows: user constraints plus upper-bound rows.
  struct Row {
    std::vector<double> coeffs;  // Dense over structural variables.
    Relation rel;
    double rhs;
  };
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(problem.num_constraints()));
  for (const LpConstraint& c : problem.constraints()) {
    Row row;
    row.coeffs.assign(static_cast<size_t>(n), 0.0);
    for (const LpTerm& term : c.terms) {
      BDS_CHECK(term.variable >= 0 && term.variable < n);
      row.coeffs[static_cast<size_t>(term.variable)] += term.coefficient;
    }
    row.rel = c.relation;
    row.rhs = c.rhs;
    rows.push_back(std::move(row));
  }
  for (int j = 0; j < n; ++j) {
    double ub = problem.upper_bounds()[static_cast<size_t>(j)];
    if (ub >= 0.0) {
      Row row;
      row.coeffs.assign(static_cast<size_t>(n), 0.0);
      row.coeffs[static_cast<size_t>(j)] = 1.0;
      row.rel = Relation::kLessEqual;
      row.rhs = ub;
      rows.push_back(std::move(row));
    }
  }

  // Normalize to rhs >= 0.
  for (Row& row : rows) {
    if (row.rhs < 0.0) {
      for (double& c : row.coeffs) {
        c = -c;
      }
      row.rhs = -row.rhs;
      if (row.rel == Relation::kLessEqual) {
        row.rel = Relation::kGreaterEqual;
      } else if (row.rel == Relation::kGreaterEqual) {
        row.rel = Relation::kLessEqual;
      }
    }
  }

  const int m = static_cast<int>(rows.size());
  // Count auxiliary columns.
  int num_slack = 0;
  int num_artificial = 0;
  for (const Row& row : rows) {
    if (row.rel != Relation::kEqual) {
      ++num_slack;
    }
    if (row.rel != Relation::kLessEqual) {
      ++num_artificial;
    }
  }

  Tableau t;
  t.rows = m;
  t.cols = n + num_slack + num_artificial;
  t.a.assign(static_cast<size_t>(m), std::vector<double>(static_cast<size_t>(t.cols) + 1, 0.0));
  t.basis.assign(static_cast<size_t>(m), -1);

  int slack_at = n;
  int artificial_at = n + num_slack;
  const int first_artificial = artificial_at;
  for (int i = 0; i < m; ++i) {
    const Row& row = rows[static_cast<size_t>(i)];
    for (int j = 0; j < n; ++j) {
      t.a[static_cast<size_t>(i)][static_cast<size_t>(j)] = row.coeffs[static_cast<size_t>(j)];
    }
    t.a[static_cast<size_t>(i)][static_cast<size_t>(t.cols)] = row.rhs;
    switch (row.rel) {
      case Relation::kLessEqual:
        t.a[static_cast<size_t>(i)][static_cast<size_t>(slack_at)] = 1.0;
        t.basis[static_cast<size_t>(i)] = slack_at++;
        break;
      case Relation::kGreaterEqual:
        t.a[static_cast<size_t>(i)][static_cast<size_t>(slack_at)] = -1.0;
        ++slack_at;
        t.a[static_cast<size_t>(i)][static_cast<size_t>(artificial_at)] = 1.0;
        t.basis[static_cast<size_t>(i)] = artificial_at++;
        break;
      case Relation::kEqual:
        t.a[static_cast<size_t>(i)][static_cast<size_t>(artificial_at)] = 1.0;
        t.basis[static_cast<size_t>(i)] = artificial_at++;
        break;
    }
  }

  int64_t iterations = 0;

  // --- Phase 1: drive artificials to zero (maximize -sum of artificials). ---
  if (num_artificial > 0) {
    t.reduced.assign(static_cast<size_t>(t.cols) + 1, 0.0);
    for (int j = first_artificial; j < t.cols; ++j) {
      t.reduced[static_cast<size_t>(j)] = -1.0;
    }
    // Canonicalize: reduced costs of basic variables must be zero.
    for (int i = 0; i < m; ++i) {
      if (t.basis[static_cast<size_t>(i)] >= first_artificial) {
        for (int j = 0; j <= t.cols; ++j) {
          t.reduced[static_cast<size_t>(j)] += t.a[static_cast<size_t>(i)][static_cast<size_t>(j)];
        }
      }
    }
    LpOutcome phase1 = RunPhase(t, options, &iterations);
    solution.iterations = iterations;
    if (phase1 == LpOutcome::kIterationLimit) {
      solution.outcome = LpOutcome::kIterationLimit;
      return solution;
    }
    // The tableau cell reduced[cols] holds the negated phase-1 objective,
    // i.e. +sum of artificials; positive residual means infeasible.
    if (t.reduced[static_cast<size_t>(t.cols)] > 1e-6) {
      solution.outcome = LpOutcome::kInfeasible;
      return solution;
    }
    // Pivot out any artificial still (degenerately) basic.
    for (int i = 0; i < m; ++i) {
      if (t.basis[static_cast<size_t>(i)] >= first_artificial) {
        int pcol = -1;
        for (int j = 0; j < first_artificial; ++j) {
          if (std::fabs(t.a[static_cast<size_t>(i)][static_cast<size_t>(j)]) > kEps) {
            pcol = j;
            break;
          }
        }
        if (pcol >= 0) {
          Pivot(t, i, pcol);
        }
        // Else: the row is redundant (all-zero over real columns); leave it.
      }
    }
  }

  // --- Phase 2: original objective. ---
  t.reduced.assign(static_cast<size_t>(t.cols) + 1, 0.0);
  for (int j = 0; j < n; ++j) {
    t.reduced[static_cast<size_t>(j)] = problem.objective()[static_cast<size_t>(j)];
  }
  // Zero out artificial columns so they never re-enter.
  for (int i = 0; i < m; ++i) {
    for (int j = first_artificial; j < t.cols; ++j) {
      t.a[static_cast<size_t>(i)][static_cast<size_t>(j)] = 0.0;
    }
  }
  // Canonicalize reduced costs against the current basis.
  for (int i = 0; i < m; ++i) {
    int b = t.basis[static_cast<size_t>(i)];
    double coef = t.reduced[static_cast<size_t>(b)];
    if (coef != 0.0) {
      for (int j = 0; j <= t.cols; ++j) {
        t.reduced[static_cast<size_t>(j)] -= coef * t.a[static_cast<size_t>(i)][static_cast<size_t>(j)];
      }
      t.reduced[static_cast<size_t>(b)] = 0.0;
    }
  }

  LpOutcome phase2 = RunPhase(t, options, &iterations);
  solution.iterations = iterations;
  if (phase2 == LpOutcome::kUnbounded) {
    solution.outcome = LpOutcome::kUnbounded;
    return solution;
  }
  if (phase2 == LpOutcome::kIterationLimit) {
    solution.outcome = LpOutcome::kIterationLimit;
    return solution;
  }

  solution.outcome = LpOutcome::kOptimal;
  solution.values.assign(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < m; ++i) {
    int b = t.basis[static_cast<size_t>(i)];
    if (b < n) {
      solution.values[static_cast<size_t>(b)] = t.a[static_cast<size_t>(i)][static_cast<size_t>(t.cols)];
    }
  }
  // reduced[cols] holds -(objective gain); recompute directly for clarity.
  double obj = 0.0;
  for (int j = 0; j < n; ++j) {
    obj += problem.objective()[static_cast<size_t>(j)] * solution.values[static_cast<size_t>(j)];
  }
  solution.objective_value = obj;
  return solution;
}

}  // namespace bds
