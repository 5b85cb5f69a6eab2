#include "matching/solver_mirror.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

namespace mfcp::matching {

namespace {

/// Stationarity residual of x given the gradient g already evaluated at x.
double residual_at(const Matrix& x, const Matrix& g, double floor) {
  double residual = 0.0;
  for (std::size_t j = 0; j < x.cols(); ++j) {
    // At an interior stationary point the gradient is constant over the
    // column support; the weighted mean recovers that constant.
    double mean = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      mean += x(i, j) * g(i, j);
    }
    for (std::size_t i = 0; i < x.rows(); ++i) {
      if (x(i, j) > floor) {
        residual = std::max(residual, std::abs(g(i, j) - mean));
      }
    }
  }
  return residual;
}

}  // namespace

double stationarity_residual(const ContinuousObjective& objective,
                             const Matrix& x, double floor) {
  return residual_at(x, objective.grad_x(x), floor);
}

SolveResult solve_mirror(const ContinuousObjective& objective,
                         const MirrorSolverConfig& config) {
  return solve_mirror_from(
      objective,
      uniform_start(objective.num_clusters(), objective.num_tasks()), config);
}

SolveResult solve_mirror_from(const ContinuousObjective& objective, Matrix x0,
                              const MirrorSolverConfig& config) {
  MFCP_CHECK(x0.rows() == objective.num_clusters() &&
                 x0.cols() == objective.num_tasks(),
             "start point shape mismatch");
  MFCP_CHECK(config.learning_rate > 0.0, "learning rate must be positive");
  MFCP_CHECK(config.floor > 0.0, "floor must be positive");

  Matrix x = std::move(x0);
  // Normalize the start onto the simplices (plain normalization — the
  // start is expected to be nonnegative, e.g. uniform).
  for (std::size_t j = 0; j < x.cols(); ++j) {
    double total = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      x(i, j) = std::max(x(i, j), config.floor);
      total += x(i, j);
    }
    for (std::size_t i = 0; i < x.rows(); ++i) {
      x(i, j) /= total;
    }
  }

  // The whole workspace of one solve, allocated here and nowhere in the
  // loop: the trial iterate, the gradient and its per-column minimum.
  // Nothing survives the call — every solve starts from the same state.
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  Matrix next(m, n);
  Matrix g(m, n);
  std::vector<double> g_min(n);

  // Writes into `next` one exponentiated-gradient step of size eta from x
  // in a numerically safe form (subtract the column-min exponent before
  // exponentiation). min_i(eta * g_ij) == eta * min_i g_ij bit for bit:
  // eta > 0 and rounding is monotone, so the minimum is taken once per
  // gradient, not once per trial step.
  const auto step = [&](double eta) {
    for (std::size_t j = 0; j < n; ++j) {
      const double min_exp = eta * g_min[j];
      double total = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double factor = std::exp(-(eta * g(i, j) - min_exp));
        next(i, j) = std::max(x(i, j) * factor, config.floor);
        total += next(i, j);
      }
      for (std::size_t i = 0; i < m; ++i) {
        next(i, j) /= total;
      }
    }
  };

  SolveResult result;
  double value = objective.value(x);
  double eta = config.learning_rate;
  // True when g already holds the gradient at the current x (the residual
  // check evaluated it), so the next iteration need not evaluate it again.
  bool have_grad = false;
  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    if (!have_grad) {
      objective.grad_into(x, g);
    }
    have_grad = false;
    for (std::size_t j = 0; j < n; ++j) {
      double lo = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < m; ++i) {
        lo = std::min(lo, g(i, j));
      }
      g_min[j] = lo;
    }
    // Backtracking: sharp beta values make the landscape stiff (curvature
    // ~ beta * t^2), so a fixed step oscillates. Halve until the step is a
    // descent step, and cautiously re-grow afterwards.
    step(eta);
    double next_value = objective.value(next);
    int halvings = 0;
    while (next_value > value - 1e-14 && halvings < 30) {
      eta *= 0.5;
      ++halvings;
      step(eta);
      next_value = objective.value(next);
    }
    result.halvings += static_cast<std::size_t>(halvings);
    if (next_value > value - 1e-14) {
      // Every halving was spent without finding descent; the last trial
      // step is accepted anyway.
      ++result.failed_line_searches;
    }
    std::swap(x, next);
    value = next_value;
    if (halvings == 0) {
      eta = std::min(eta * 1.25, config.learning_rate);
    }
    result.iterations = it + 1;
    // Checking the residual every iteration would double the gradient
    // evaluations; every 8th is enough for a stopping test, and the
    // gradient it needs is the one the next iteration starts from.
    if ((it & 7u) == 7u) {
      objective.grad_into(x, g);
      have_grad = true;
      result.residual = residual_at(x, g, 1e-6);
      if (result.residual < config.tolerance) {
        result.converged = true;
        break;
      }
    }
  }
  if (!result.converged) {
    if (!have_grad) {
      objective.grad_into(x, g);
    }
    result.residual = residual_at(x, g, 1e-6);
    MFCP_LOG(kDebug) << "mirror descent hit the iteration cap ("
                     << config.max_iterations << "), residual "
                     << result.residual;
  }
  result.objective = objective.value(x);
  result.x = std::move(x);

  // Solver telemetry (iterations to converge, final residual) through the
  // process-wide registry — the solver sits below the engine and cannot be
  // handed one per call without threading a pointer through every trainer.
  if (obs::MetricsRegistry* reg = obs::default_registry()) {
    reg->counter("mfcp_matching_solves_total").add(1);
    if (!result.converged) {
      reg->counter("mfcp_matching_solver_capped_total").add(1);
    }
    reg->histogram("mfcp_matching_solver_iterations",
                   obs::default_iteration_bounds())
        .observe(static_cast<double>(result.iterations));
    reg->counter("mfcp_matching_solver_halvings_total").add(result.halvings);
    reg->counter("mfcp_matching_solver_failed_line_searches_total")
        .add(result.failed_line_searches);
    reg->gauge("mfcp_matching_solver_residual").set(result.residual);
  }
  return result;
}

}  // namespace mfcp::matching
