// Interior-point (log-barrier) objective — paper Eq. (9):
//     F(X, T, A) = f̃(X, T) - λ log( g(X, A) )
// with g(X, A) = (1/N) Σ_i x_i^T a_i - γ (see problem.hpp for the
// normalization note). Folding Â into the objective restores meaningful
// gradients with respect to the predicted reliability (§3.2, factor 3).
//
// Below the barrier's domain boundary (slack <= eps) the log is extended
// linearly, keeping F finite and C¹ so the solvers can recover from an
// infeasible iterate instead of producing NaNs.
#pragma once

#include "matching/smooth_objective.hpp"

namespace mfcp::matching {

struct BarrierConfig {
  /// Log-sum-exp sharpness (Theorem 1). The smoothing error is log(M)/beta
  /// in the same units as the makespan, so beta should be set relative to
  /// the expected cluster busy times (~hours here). Too-sharp values make
  /// the cluster weights one-hot and starve the KKT sensitivities.
  double beta = 2.0;
  double lambda = 0.1;  // barrier weight λ
  /// Linear-extension threshold: below this slack the log is extended
  /// linearly, bounding the barrier gradient by lambda/slack_epsilon.
  double slack_epsilon = 1e-3;
};

class BarrierObjective final : public KktDifferentiableObjective {
 public:
  BarrierObjective(Matrix times, Matrix reliability, double gamma,
                   BarrierConfig config = {},
                   sim::SpeedupCurve speedup = sim::SpeedupCurve::exclusive());

  /// Convenience: build from a MatchingProblem.
  BarrierObjective(const MatchingProblem& problem, BarrierConfig config = {});

  [[nodiscard]] std::size_t num_clusters() const noexcept override {
    return smoothed_.num_clusters();
  }
  [[nodiscard]] std::size_t num_tasks() const noexcept override {
    return smoothed_.num_tasks();
  }

  [[nodiscard]] double value(const Matrix& x) const override;
  void grad_into(const Matrix& x, Matrix& g) const override;

  /// Hessian blocks needed by the KKT sensitivity system (Eq. 15). Only
  /// defined for exclusive execution (ζ ≡ 1), where F is convex in X —
  /// matching the paper, which restricts analytical differentiation
  /// (MFCP-AD) to the convex case. Flattened index = i * N + j.
  [[nodiscard]] Matrix hess_xx(const Matrix& x) const override;
  [[nodiscard]] Matrix hess_xt(const Matrix& x) const override;
  [[nodiscard]] Matrix hess_xa(const Matrix& x) const override;

  [[nodiscard]] double reliability_slack(const Matrix& x) const;

  [[nodiscard]] const SmoothedMakespan& smoothed() const noexcept {
    return smoothed_;
  }
  [[nodiscard]] const Matrix& reliability() const noexcept {
    return reliability_;
  }
  [[nodiscard]] double gamma() const noexcept { return gamma_; }
  [[nodiscard]] const BarrierConfig& config() const noexcept {
    return config_;
  }

 private:
  /// -λ log(slack) with linear extension below slack_epsilon; also its
  /// derivative with respect to slack.
  [[nodiscard]] double barrier_value(double slack) const;
  [[nodiscard]] double barrier_derivative(double slack) const;

  SmoothedMakespan smoothed_;
  Matrix reliability_;
  double gamma_;
  BarrierConfig config_;
};

}  // namespace mfcp::matching
