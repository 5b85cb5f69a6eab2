#include "matching/objective.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mfcp::matching {

void busy_times_into(const Matrix& x, const Matrix& times,
                     const sim::SpeedupCurve& speedup, std::span<double> busy,
                     std::span<double> load, std::span<double> count) {
  MFCP_CHECK(x.same_shape(times), "X and T must both be M x N");
  MFCP_CHECK(busy.size() == x.rows() &&
                 (load.empty() || load.size() == x.rows()) &&
                 (count.empty() || count.size() == x.rows()),
             "busy-time buffers must have one entry per cluster");
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double l = 0.0;
    double c = 0.0;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      l += x(i, j) * times(i, j);
      c += x(i, j);
    }
    busy[i] = speedup.value(c) * l;
    if (!load.empty()) {
      load[i] = l;
    }
    if (!count.empty()) {
      count[i] = c;
    }
  }
}

double makespan(const Matrix& x, const Matrix& times,
                const sim::SpeedupCurve& speedup) {
  ClusterScratch scratch(x.rows(), 1);
  const auto busy = scratch.row(0);
  busy_times_into(x, times, speedup, busy);
  return *std::max_element(busy.begin(), busy.end());
}

double makespan(const Assignment& assignment, const Matrix& times,
                const sim::SpeedupCurve& speedup) {
  return makespan(assignment_to_matrix(assignment, times.rows()), times,
                  speedup);
}

double rounding_gap(const Matrix& x, const Assignment& assignment,
                    const Matrix& times, const sim::SpeedupCurve& speedup) {
  return makespan(assignment, times, speedup) - makespan(x, times, speedup);
}

double linear_cost(const Matrix& x, const Matrix& times,
                   const sim::SpeedupCurve& speedup) {
  ClusterScratch scratch(x.rows(), 1);
  const auto busy = scratch.row(0);
  busy_times_into(x, times, speedup, busy);
  double total = 0.0;
  for (double b : busy) {
    total += b;
  }
  return total;
}

double average_reliability(const Matrix& x, const Matrix& reliability) {
  MFCP_CHECK(x.same_shape(reliability), "X and A must both be M x N");
  MFCP_CHECK(x.cols() > 0, "no tasks");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += x[i] * reliability[i];
  }
  return acc / static_cast<double>(x.cols());
}

double average_reliability(const Assignment& assignment,
                           const Matrix& reliability) {
  return average_reliability(
      assignment_to_matrix(assignment, reliability.rows()), reliability);
}

double reliability_slack(const Matrix& x, const MatchingProblem& problem) {
  return average_reliability(x, problem.reliability) - problem.gamma;
}

bool is_feasible(const Assignment& assignment,
                 const MatchingProblem& problem) {
  return average_reliability(assignment, problem.reliability) >=
         problem.gamma - 1e-12;
}

double utilization(const Assignment& assignment, const Matrix& times,
                   const sim::SpeedupCurve& speedup) {
  ClusterScratch scratch(times.rows(), 1);
  const auto busy = scratch.row(0);
  busy_times_into(assignment_to_matrix(assignment, times.rows()), times,
                  speedup, busy);
  const double peak = *std::max_element(busy.begin(), busy.end());
  if (peak <= 0.0) {
    return 0.0;
  }
  double total = 0.0;
  for (double b : busy) {
    total += b;
  }
  return total / (static_cast<double>(busy.size()) * peak);
}

}  // namespace mfcp::matching
