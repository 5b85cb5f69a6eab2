// Hard (non-smoothed) objective and constraint evaluation — used to score
// final discrete assignments and to define the evaluation metrics.
#pragma once

#include <memory>
#include <span>

#include "matching/problem.hpp"

namespace mfcp::matching {

/// The one busy-times kernel. For each cluster i, summing over tasks j in
/// order: load_i = Σ_j x_ij t_ij, count_i = Σ_j x_ij and
/// busy_i = ζ(count_i) · load_i. Writes busy_i into `busy` (length M) and,
/// when the span is non-empty, load_i into `load` and count_i into
/// `count`. Every makespan-type value and gradient goes through it, so all
/// of them see bit-identical busy times.
void busy_times_into(const Matrix& x, const Matrix& times,
                     const sim::SpeedupCurve& speedup, std::span<double> busy,
                     std::span<double> load = {},
                     std::span<double> count = {});

/// Per-cluster scratch for one objective evaluation: `rows` arrays of M
/// doubles, on the stack while they fit kInline doubles and in one heap
/// block beyond. Lives for one call only — objectives keep no state
/// between evaluations.
class ClusterScratch {
 public:
  ClusterScratch(std::size_t clusters, std::size_t rows) : clusters_(clusters) {
    if (clusters * rows > kInline) {
      heap_ = std::make_unique<double[]>(clusters * rows);
      data_ = heap_.get();
    }
  }
  ClusterScratch(const ClusterScratch&) = delete;
  ClusterScratch& operator=(const ClusterScratch&) = delete;

  [[nodiscard]] std::span<double> row(std::size_t k) noexcept {
    return {data_ + k * clusters_, clusters_};
  }

 private:
  static constexpr std::size_t kInline = 48;
  std::size_t clusters_;
  double inline_[kInline] = {};
  std::unique_ptr<double[]> heap_;
  double* data_ = inline_;
};

/// Makespan f(X, T) = max_i ζ(n_i) x_i^T t_i for a (possibly fractional) X.
double makespan(const Matrix& x, const Matrix& times,
                const sim::SpeedupCurve& speedup);

/// Makespan of a discrete assignment.
double makespan(const Assignment& assignment, const Matrix& times,
                const sim::SpeedupCurve& speedup);

/// Integrality (rounding) gap f(assignment) - f(x): the makespan price of
/// snapping a relaxed matching to the discrete deployment derived from
/// it. Signed — rounding can land on a better integral point than the
/// fractional iterate it started from.
double rounding_gap(const Matrix& x, const Assignment& assignment,
                    const Matrix& times, const sim::SpeedupCurve& speedup);

/// Linear cost Σ_i ζ(n_i) x_i^T t_i (the ablation-(1) objective: total
/// instead of maximum cluster time).
double linear_cost(const Matrix& x, const Matrix& times,
                   const sim::SpeedupCurve& speedup);

/// Average task reliability (1/N) Σ_i x_i^T a_i.
double average_reliability(const Matrix& x, const Matrix& reliability);
double average_reliability(const Assignment& assignment,
                           const Matrix& reliability);

/// Constraint value g(X, A) = average_reliability - gamma.
double reliability_slack(const Matrix& x, const MatchingProblem& problem);

/// True when the assignment satisfies the reliability constraint.
bool is_feasible(const Assignment& assignment,
                 const MatchingProblem& problem);

/// Cluster utilization: Σ_i busy_i / (M · max_i busy_i), where busy_i =
/// ζ(n_i) x_i^T t_i. Equals 1 for a perfectly balanced assignment (the
/// paper's third evaluation metric).
double utilization(const Assignment& assignment, const Matrix& times,
                   const sim::SpeedupCurve& speedup);

}  // namespace mfcp::matching
