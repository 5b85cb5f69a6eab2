#include "matching/smooth_objective.hpp"

#include <cmath>

#include "linalg/vector_ops.hpp"
#include "matching/objective.hpp"
#include "support/check.hpp"

namespace mfcp::matching {

SmoothedMakespan::SmoothedMakespan(Matrix times, double beta,
                                   sim::SpeedupCurve speedup)
    : times_(std::move(times)), beta_(beta), speedup_(speedup) {
  MFCP_CHECK(beta_ > 0.0, "smoothing beta must be positive");
  MFCP_CHECK(times_.rows() > 0 && times_.cols() > 0,
             "objective needs clusters and tasks");
}

std::vector<double> SmoothedMakespan::busy_times(const Matrix& x) const {
  std::vector<double> busy(x.rows());
  busy_times_into(x, times_, speedup_, busy);
  return busy;
}

double SmoothedMakespan::value(const Matrix& x) const {
  ClusterScratch scratch(x.rows(), 1);
  const auto busy = scratch.row(0);
  busy_times_into(x, times_, speedup_, busy);
  return log_sum_exp(busy, beta_);
}

std::vector<double> SmoothedMakespan::cluster_weights(const Matrix& x) const {
  auto busy = busy_times(x);
  softmax_inplace(std::span<double>(busy), beta_);
  return busy;
}

Matrix SmoothedMakespan::hess_xx_exclusive(const Matrix& x) const {
  MFCP_CHECK(speedup_.is_constant(),
             "analytic Hessians require exclusive execution (convex case)");
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  const auto p = cluster_weights(x);
  Matrix h(m * n, m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t row = i * n + j;
      for (std::size_t k = 0; k < m; ++k) {
        const double w = beta_ * p[i] * ((i == k ? 1.0 : 0.0) - p[k]);
        if (w == 0.0) {
          continue;
        }
        for (std::size_t l = 0; l < n; ++l) {
          h(row, k * n + l) += w * times_(i, j) * times_(k, l);
        }
      }
    }
  }
  return h;
}

Matrix SmoothedMakespan::hess_xt_exclusive(const Matrix& x) const {
  MFCP_CHECK(speedup_.is_constant(),
             "analytic Hessians require exclusive execution (convex case)");
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  const auto p = cluster_weights(x);
  Matrix h(m * n, m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t row = i * n + j;
      h(row, row) += p[i];
      for (std::size_t k = 0; k < m; ++k) {
        const double w = beta_ * p[i] * ((i == k ? 1.0 : 0.0) - p[k]);
        if (w == 0.0) {
          continue;
        }
        for (std::size_t l = 0; l < n; ++l) {
          h(row, k * n + l) += w * times_(i, j) * x(k, l);
        }
      }
    }
  }
  return h;
}

void SmoothedMakespan::grad_into(const Matrix& x, Matrix& g) const {
  MFCP_CHECK(g.same_shape(times_), "gradient buffer shape mismatch");
  // p_i = softmax(beta * u), du_i/dx_ij = zeta'(n_i) s_i + zeta(n_i) t_ij.
  ClusterScratch scratch(x.rows(), 3);
  const auto p = scratch.row(0);
  const auto load = scratch.row(1);
  const auto count = scratch.row(2);
  busy_times_into(x, times_, speedup_, p, load, count);
  softmax_inplace(p, beta_);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double zeta = speedup_.value(count[i]);
    const double dzeta = speedup_.derivative(count[i]);
    for (std::size_t j = 0; j < x.cols(); ++j) {
      g(i, j) = p[i] * (dzeta * load[i] + zeta * times_(i, j));
    }
  }
}

}  // namespace mfcp::matching
