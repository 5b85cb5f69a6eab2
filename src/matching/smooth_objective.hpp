// Continuous relaxation machinery (paper §3.2).
//
// During predictor training the binary assignment X is relaxed to the
// product of simplices (each task's column sums to 1), the max in the
// objective is smoothed with log-sum-exp (Eq. 8, Theorem 1), and the
// reliability constraint is folded in via a barrier or penalty (Eq. 9 /
// ablation 2). All of those are ContinuousObjective implementations that
// the solvers in solver_gd / solver_mirror minimize.
#pragma once

#include <vector>

#include "matching/problem.hpp"

namespace mfcp::matching {

/// A differentiable objective F(X) over relaxed assignments X (M x N).
class ContinuousObjective {
 public:
  virtual ~ContinuousObjective() = default;

  [[nodiscard]] virtual std::size_t num_clusters() const noexcept = 0;
  [[nodiscard]] virtual std::size_t num_tasks() const noexcept = 0;

  [[nodiscard]] virtual double value(const Matrix& x) const = 0;

  /// Writes dF/dX into `g`, which must already be M x N; every entry is
  /// overwritten. The solvers' loops call this with buffers allocated once
  /// per solve.
  virtual void grad_into(const Matrix& x, Matrix& g) const = 0;

  /// dF/dX as a fresh M x N matrix.
  [[nodiscard]] Matrix grad_x(const Matrix& x) const {
    Matrix g(num_clusters(), num_tasks());
    grad_into(x, g);
    return g;
  }
};

/// A continuous objective that additionally exposes the Hessian blocks the
/// KKT sensitivity system (paper Eq. 15) needs: ∇²_XX F, ∇²_XT F, ∇²_XA F,
/// all flattened with index i*N + j. Implementations are only required to
/// support the exclusive-execution (convex) case, matching the paper's
/// restriction of MFCP-AD to convex objectives.
class KktDifferentiableObjective : public ContinuousObjective {
 public:
  [[nodiscard]] virtual Matrix hess_xx(const Matrix& x) const = 0;
  [[nodiscard]] virtual Matrix hess_xt(const Matrix& x) const = 0;
  [[nodiscard]] virtual Matrix hess_xa(const Matrix& x) const = 0;
};

/// Smoothed makespan f̃(X, T) = (1/β) log Σ_i exp(β ζ(n_i) x_i^T t_i)
/// (Eq. 8 for exclusive execution, Eq. 17 with a speedup curve).
class SmoothedMakespan final : public ContinuousObjective {
 public:
  SmoothedMakespan(Matrix times, double beta,
                   sim::SpeedupCurve speedup = sim::SpeedupCurve::exclusive());

  [[nodiscard]] std::size_t num_clusters() const noexcept override {
    return times_.rows();
  }
  [[nodiscard]] std::size_t num_tasks() const noexcept override {
    return times_.cols();
  }

  [[nodiscard]] double value(const Matrix& x) const override;
  void grad_into(const Matrix& x, Matrix& g) const override;

  /// Softmax weights p_i over clusters at x — the "which cluster is
  /// binding" distribution that also appears in every Hessian formula.
  [[nodiscard]] std::vector<double> cluster_weights(const Matrix& x) const;

  /// Effective per-cluster busy times u_i = ζ(n_i) x_i^T t_i.
  [[nodiscard]] std::vector<double> busy_times(const Matrix& x) const;

  /// Hessian blocks of f̃ alone for the exclusive (ζ ≡ 1) case — shared by
  /// every KktDifferentiableObjective built on top of the smoothed max:
  ///   ∂²f̃/∂x_ij∂x_kl = β p_i (δ_ik - p_k) t_ij t_kl,
  ///   ∂²f̃/∂x_ij∂t_kl = p_i δ_ik δ_jl + β p_i (δ_ik - p_k) t_ij x_kl.
  [[nodiscard]] Matrix hess_xx_exclusive(const Matrix& x) const;
  [[nodiscard]] Matrix hess_xt_exclusive(const Matrix& x) const;

  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] const Matrix& times() const noexcept { return times_; }
  [[nodiscard]] const sim::SpeedupCurve& speedup() const noexcept {
    return speedup_;
  }

 private:
  Matrix times_;
  double beta_;
  sim::SpeedupCurve speedup_;
};

}  // namespace mfcp::matching
