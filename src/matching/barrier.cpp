#include "matching/barrier.hpp"

#include <cmath>

#include "matching/objective.hpp"
#include "support/check.hpp"

namespace mfcp::matching {

BarrierObjective::BarrierObjective(Matrix times, Matrix reliability,
                                   double gamma, BarrierConfig config,
                                   sim::SpeedupCurve speedup)
    : smoothed_(std::move(times), config.beta, speedup),
      reliability_(std::move(reliability)),
      gamma_(gamma),
      config_(config) {
  MFCP_CHECK(reliability_.same_shape(smoothed_.times()),
             "reliability must be M x N");
  MFCP_CHECK(config_.lambda > 0.0, "barrier weight must be positive");
  MFCP_CHECK(config_.slack_epsilon > 0.0, "slack epsilon must be positive");
}

BarrierObjective::BarrierObjective(const MatchingProblem& problem,
                                   BarrierConfig config)
    : BarrierObjective(problem.times, problem.reliability, problem.gamma,
                       config, problem.speedup) {}

double BarrierObjective::reliability_slack(const Matrix& x) const {
  return average_reliability(x, reliability_) - gamma_;
}

double BarrierObjective::barrier_value(double slack) const {
  const double eps = config_.slack_epsilon;
  if (slack > eps) {
    return -config_.lambda * std::log(slack);
  }
  // C1 linear extension: log(s) ~ log(eps) + (s - eps)/eps below eps.
  return -config_.lambda * (std::log(eps) + (slack - eps) / eps);
}

double BarrierObjective::barrier_derivative(double slack) const {
  const double eps = config_.slack_epsilon;
  if (slack > eps) {
    return -config_.lambda / slack;
  }
  return -config_.lambda / eps;
}

double BarrierObjective::value(const Matrix& x) const {
  return smoothed_.value(x) + barrier_value(reliability_slack(x));
}

void BarrierObjective::grad_into(const Matrix& x, Matrix& g) const {
  smoothed_.grad_into(x, g);
  const double dslack = barrier_derivative(reliability_slack(x));
  const double n = static_cast<double>(num_tasks());
  for (std::size_t i = 0; i < g.size(); ++i) {
    // d slack / d x_ij = a_ij / N.
    g[i] += dslack * reliability_[i] / n;
  }
}

Matrix BarrierObjective::hess_xx(const Matrix& x) const {
  const std::size_t n = num_tasks();
  const std::size_t mn = num_clusters() * n;
  const double slack = reliability_slack(x);
  const double nd = static_cast<double>(n);

  Matrix h = smoothed_.hess_xx_exclusive(x);
  // Barrier part (only where the true log is active):
  // lambda * a_ij a_kl / (N^2 slack^2).
  if (slack > config_.slack_epsilon) {
    const double c = config_.lambda / (nd * nd * slack * slack);
    for (std::size_t r = 0; r < mn; ++r) {
      for (std::size_t s = 0; s < mn; ++s) {
        h(r, s) += c * reliability_[r] * reliability_[s];
      }
    }
  }
  return h;
}

Matrix BarrierObjective::hess_xt(const Matrix& x) const {
  // The barrier term does not involve T, so the cross block is f̃'s alone.
  return smoothed_.hess_xt_exclusive(x);
}

Matrix BarrierObjective::hess_xa(const Matrix& x) const {
  MFCP_CHECK(smoothed_.speedup().is_constant(),
             "analytic Hessians require exclusive execution (convex case)");
  const std::size_t m = num_clusters();
  const std::size_t n = num_tasks();
  const std::size_t mn = m * n;
  const double nd = static_cast<double>(n);
  const double slack = reliability_slack(x);

  Matrix h(mn, mn, 0.0);
  if (slack > config_.slack_epsilon) {
    // d(dF/dx_ij)/da_kl = -lambda delta_ik delta_jl / (N slack)
    //                     + lambda a_ij x_kl / (N slack)^2.
    const double c1 = -config_.lambda / (nd * slack);
    const double c2 = config_.lambda / (nd * nd * slack * slack);
    for (std::size_t r = 0; r < mn; ++r) {
      h(r, r) += c1;
      for (std::size_t s = 0; s < mn; ++s) {
        h(r, s) += c2 * reliability_[r] * x[s];
      }
    }
  } else {
    // Linear extension region: gradient is -lambda a_ij/(N eps) — constant
    // slope in slack, so the only  Â-dependence is the direct a_ij term.
    const double c1 = -config_.lambda / (nd * config_.slack_epsilon);
    for (std::size_t r = 0; r < mn; ++r) {
      h(r, r) += c1;
    }
  }
  return h;
}

}  // namespace mfcp::matching
