// Algorithm 1 of the paper: optimal matching by projected gradient descent.
//
//   repeat:  X <- X - η ∇_X F(X, T, A)
//            X(:, j) <- softmax(X(:, j))   for every task j
//
// The column softmax keeps every task's assignment weights on the simplex
// over clusters, i.e. the relaxed feasible set of problem (10).
#pragma once

#include "matching/smooth_objective.hpp"

namespace mfcp::matching {

struct GdSolverConfig {
  std::size_t max_iterations = 400;
  double learning_rate = 0.5;
  /// Stop early when the iterate moves less than this (inf-norm).
  double tolerance = 1e-9;
};

struct SolveResult {
  Matrix x;                  // relaxed optimal matching, columns on simplex
  double objective = 0.0;    // F at x
  std::size_t iterations = 0;
  bool converged = false;    // hit tolerance before the iteration cap
  /// Final convergence residual: the quantity each solver tests against
  /// its tolerance (mirror descent: simplex stationarity residual;
  /// projected GD: inf-norm of the last iterate move).
  double residual = 0.0;
  /// Mirror descent's line-search work: step halvings summed over all
  /// iterations, and the iterations whose halvings (30 at most) never
  /// found a descent step but accepted the last trial step anyway. Zero
  /// for projected GD, which has no line search.
  std::size_t halvings = 0;
  std::size_t failed_line_searches = 0;
};

/// Uniform relaxed start: every entry 1/M (center of the feasible set).
Matrix uniform_start(std::size_t num_clusters, std::size_t num_tasks);

/// Runs Algorithm 1 from the uniform start.
SolveResult solve_gd(const ContinuousObjective& objective,
                     const GdSolverConfig& config = {});

/// Runs Algorithm 1 from a caller-supplied start (columns need not be
/// normalized; the first projection fixes them).
SolveResult solve_gd_from(const ContinuousObjective& objective, Matrix x0,
                          const GdSolverConfig& config = {});

}  // namespace mfcp::matching
