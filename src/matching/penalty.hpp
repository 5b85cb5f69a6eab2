// Ablation objectives (paper §4.2).
//
// (1) "Maximum Loss" ablation: replace the smoothed max-makespan with the
//     *linear* total-time cost Σ_i ζ(n_i) x_i^T t_i (keeping the barrier).
// (2) "Interior-Point Method" ablation: keep the smoothed makespan but
//     replace the log barrier with a hard hinge penalty
//     λ · max(0, γ - g(X, A)).
#pragma once

#include "matching/smooth_objective.hpp"

namespace mfcp::matching {

/// Ablation (2): F(X,T,A) = f̃(X,T) + λ max(0, γ - avg_reliability(X,A)).
///
/// Implements the KKT-differentiable interface so MFCP-AD can train
/// through it — which exposes exactly the pathology §3.2 describes: the
/// penalty's second derivatives vanish wherever the constraint is strictly
/// satisfied or strictly violated, so the reliability predictor receives
/// (almost everywhere) zero gradient through the matching layer.
class HardPenaltyObjective final : public KktDifferentiableObjective {
 public:
  HardPenaltyObjective(Matrix times, Matrix reliability, double gamma,
                       double beta, double lambda,
                       sim::SpeedupCurve speedup =
                           sim::SpeedupCurve::exclusive());

  HardPenaltyObjective(const MatchingProblem& problem, double beta,
                       double lambda);

  [[nodiscard]] std::size_t num_clusters() const noexcept override {
    return smoothed_.num_clusters();
  }
  [[nodiscard]] std::size_t num_tasks() const noexcept override {
    return smoothed_.num_tasks();
  }

  [[nodiscard]] double value(const Matrix& x) const override;
  void grad_into(const Matrix& x, Matrix& g) const override;

  [[nodiscard]] Matrix hess_xx(const Matrix& x) const override;
  [[nodiscard]] Matrix hess_xt(const Matrix& x) const override;
  [[nodiscard]] Matrix hess_xa(const Matrix& x) const override;

 private:
  SmoothedMakespan smoothed_;
  Matrix reliability_;
  double gamma_;
  double lambda_;
};

/// Ablation (1): F(X,T,A) = Σ_i ζ(n_i) x_i^T t_i - λ log(g(X,A)).
/// The linear cost has no load-balancing pressure: whichever cluster is
/// fastest per task attracts everything, which is exactly the failure mode
/// Table 1 row (1) demonstrates.
class LinearCostBarrierObjective final : public ContinuousObjective {
 public:
  LinearCostBarrierObjective(Matrix times, Matrix reliability, double gamma,
                             double lambda,
                             sim::SpeedupCurve speedup =
                                 sim::SpeedupCurve::exclusive());

  LinearCostBarrierObjective(const MatchingProblem& problem, double lambda);

  [[nodiscard]] std::size_t num_clusters() const noexcept override {
    return times_.rows();
  }
  [[nodiscard]] std::size_t num_tasks() const noexcept override {
    return times_.cols();
  }

  [[nodiscard]] double value(const Matrix& x) const override;
  void grad_into(const Matrix& x, Matrix& g) const override;

 private:
  [[nodiscard]] double slack(const Matrix& x) const;

  Matrix times_;
  Matrix reliability_;
  double gamma_;
  double lambda_;
  double eps_ = 1e-6;
  sim::SpeedupCurve speedup_;
};

}  // namespace mfcp::matching
