#include "matching/penalty.hpp"

#include <cmath>

#include "matching/objective.hpp"
#include "support/check.hpp"

namespace mfcp::matching {

HardPenaltyObjective::HardPenaltyObjective(Matrix times, Matrix reliability,
                                           double gamma, double beta,
                                           double lambda,
                                           sim::SpeedupCurve speedup)
    : smoothed_(std::move(times), beta, speedup),
      reliability_(std::move(reliability)),
      gamma_(gamma),
      lambda_(lambda) {
  MFCP_CHECK(reliability_.same_shape(smoothed_.times()),
             "reliability must be M x N");
  MFCP_CHECK(lambda_ > 0.0, "penalty weight must be positive");
}

HardPenaltyObjective::HardPenaltyObjective(const MatchingProblem& problem,
                                           double beta, double lambda)
    : HardPenaltyObjective(problem.times, problem.reliability, problem.gamma,
                           beta, lambda, problem.speedup) {}

double HardPenaltyObjective::value(const Matrix& x) const {
  const double violation =
      std::max(0.0, gamma_ - average_reliability(x, reliability_));
  return smoothed_.value(x) + lambda_ * violation;
}

void HardPenaltyObjective::grad_into(const Matrix& x, Matrix& g) const {
  smoothed_.grad_into(x, g);
  const double avg = average_reliability(x, reliability_);
  if (avg < gamma_) {
    // Subgradient of the hinge: -lambda * a_ij / N while violated, exactly
    // zero otherwise — the vanishing-gradient problem §3.2 describes.
    const double n = static_cast<double>(num_tasks());
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] -= lambda_ * reliability_[i] / n;
    }
  }
}

Matrix HardPenaltyObjective::hess_xx(const Matrix& x) const {
  // The hinge is piecewise linear in X: zero curvature almost everywhere.
  return smoothed_.hess_xx_exclusive(x);
}

Matrix HardPenaltyObjective::hess_xt(const Matrix& x) const {
  return smoothed_.hess_xt_exclusive(x);
}

Matrix HardPenaltyObjective::hess_xa(const Matrix& x) const {
  const std::size_t mn = x.size();
  Matrix h(mn, mn, 0.0);
  // d(dF/dx_ij)/da_kl: zero when the constraint is satisfied (the §3.2
  // vanishing-gradient pathology); -lambda/N on the diagonal while
  // violated.
  if (average_reliability(x, reliability_) < gamma_) {
    const double c = -lambda_ / static_cast<double>(num_tasks());
    for (std::size_t r = 0; r < mn; ++r) {
      h(r, r) = c;
    }
  }
  return h;
}

LinearCostBarrierObjective::LinearCostBarrierObjective(
    Matrix times, Matrix reliability, double gamma, double lambda,
    sim::SpeedupCurve speedup)
    : times_(std::move(times)),
      reliability_(std::move(reliability)),
      gamma_(gamma),
      lambda_(lambda),
      speedup_(speedup) {
  MFCP_CHECK(reliability_.same_shape(times_), "reliability must be M x N");
  MFCP_CHECK(lambda_ > 0.0, "barrier weight must be positive");
}

LinearCostBarrierObjective::LinearCostBarrierObjective(
    const MatchingProblem& problem, double lambda)
    : LinearCostBarrierObjective(problem.times, problem.reliability,
                                 problem.gamma, lambda, problem.speedup) {}

double LinearCostBarrierObjective::slack(const Matrix& x) const {
  return average_reliability(x, reliability_) - gamma_;
}

double LinearCostBarrierObjective::value(const Matrix& x) const {
  const double cost = linear_cost(x, times_, speedup_);
  const double s = slack(x);
  if (s > eps_) {
    return cost - lambda_ * std::log(s);
  }
  return cost - lambda_ * (std::log(eps_) + (s - eps_) / eps_);
}

void LinearCostBarrierObjective::grad_into(const Matrix& x, Matrix& g) const {
  MFCP_CHECK(g.same_shape(times_), "gradient buffer shape mismatch");
  ClusterScratch scratch(x.rows(), 3);
  const auto busy = scratch.row(0);
  const auto load = scratch.row(1);
  const auto count = scratch.row(2);
  busy_times_into(x, times_, speedup_, busy, load, count);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double zeta = speedup_.value(count[i]);
    const double dzeta = speedup_.derivative(count[i]);
    for (std::size_t j = 0; j < x.cols(); ++j) {
      g(i, j) = dzeta * load[i] + zeta * times_(i, j);
    }
  }
  const double s = slack(x);
  const double dbarrier = s > eps_ ? -lambda_ / s : -lambda_ / eps_;
  const double n = static_cast<double>(num_tasks());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] += dbarrier * reliability_[i] / n;
  }
}

}  // namespace mfcp::matching
