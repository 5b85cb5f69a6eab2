#include "matching/entropy.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mfcp::matching {

namespace {
// Below this the entropy terms are evaluated at the floor: keeps log and
// 1/x finite at the mirror solver's interior floor.
constexpr double kEntropyFloor = 1e-12;
}  // namespace

double entropy_value(const Matrix& x, double tau) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = std::max(x[i], kEntropyFloor);
    acc += v * std::log(v);
  }
  return tau * acc;
}

void add_entropy_gradient(const Matrix& x, double tau, Matrix& grad) {
  MFCP_CHECK(grad.same_shape(x), "gradient shape mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = std::max(x[i], kEntropyFloor);
    grad[i] += tau * (1.0 + std::log(v));
  }
}

void add_entropy_hessian_diag(const Matrix& x, double tau, Matrix& hess) {
  MFCP_CHECK(hess.rows() == x.size() && hess.cols() == x.size(),
             "hessian shape mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    hess(i, i) += tau / std::max(x[i], kEntropyFloor);
  }
}

EntropicObjective::EntropicObjective(
    std::unique_ptr<ContinuousObjective> base, double tau)
    : base_(std::move(base)), tau_(tau) {
  MFCP_CHECK(base_ != nullptr, "null base objective");
  MFCP_CHECK(tau_ > 0.0, "entropy weight must be positive");
}

double EntropicObjective::value(const Matrix& x) const {
  return base_->value(x) + entropy_value(x, tau_);
}

void EntropicObjective::grad_into(const Matrix& x, Matrix& g) const {
  base_->grad_into(x, g);
  add_entropy_gradient(x, tau_, g);
}

EntropicKktObjective::EntropicKktObjective(
    std::unique_ptr<KktDifferentiableObjective> base, double tau)
    : base_(std::move(base)), tau_(tau) {
  MFCP_CHECK(base_ != nullptr, "null base objective");
  MFCP_CHECK(tau_ > 0.0, "entropy weight must be positive");
}

double EntropicKktObjective::value(const Matrix& x) const {
  return base_->value(x) + entropy_value(x, tau_);
}

void EntropicKktObjective::grad_into(const Matrix& x, Matrix& g) const {
  base_->grad_into(x, g);
  add_entropy_gradient(x, tau_, g);
}

Matrix EntropicKktObjective::hess_xx(const Matrix& x) const {
  Matrix h = base_->hess_xx(x);
  add_entropy_hessian_diag(x, tau_, h);
  return h;
}

Matrix EntropicKktObjective::hess_xt(const Matrix& x) const {
  return base_->hess_xt(x);
}

Matrix EntropicKktObjective::hess_xa(const Matrix& x) const {
  return base_->hess_xa(x);
}

}  // namespace mfcp::matching
