// Rayleigh-Ritz pieces shared by Algorithm 5 (rpa/subspace.cpp) and the
// static subspace projection (rpa/ssa.cpp). Internal to rsrpa_rpa.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/matrix.hpp"
#include "sched/parallel_for.hpp"

namespace rsrpa::rpa::detail {

/// Symmetrize the projected operator in place. Inexact Sternheimer solves
/// leave it slightly asymmetric (the subspace-iteration-under-perturbation
/// regime of paper SS IV-B).
inline void symmetrize(la::Matrix<double>& h) {
  for (std::size_t j = 0; j < h.cols(); ++j)
    for (std::size_t i = 0; i < j; ++i) {
      const double avg = 0.5 * (h(i, j) + h(j, i));
      h(i, j) = avg;
      h(j, i) = avg;
    }
}

/// Eq. (7)-normalized residual of the first `m` Ritz pairs (x_j, mu_j)
/// given their operator images ax: sum_j ||A x_j - mu_j x_j|| over
/// (m * max(||mu||_2, eps)). Both callers pass ax = (A B) Y, the image of
/// the projection basis rotated by the Ritz coefficients, so the check
/// costs no operator application. Per-column norms land in `col_res`,
/// fanned out over the sched pool into disjoint slots; the final sum stays
/// serial in ascending j, so the residual — and every decision taken on
/// it — is bitwise identical at any thread count.
inline double ritz_residual(const la::Matrix<double>& x,
                            const la::Matrix<double>& ax,
                            const std::vector<double>& values, std::size_t m,
                            std::vector<double>& col_res) {
  const std::size_t n = x.rows();
  col_res.assign(m, 0.0);
  sched::parallel_for(0, m, 4, [&](std::size_t j) {
    double r2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = ax(i, j) - values[j] * x(i, j);
      r2 += r * r;
    }
    col_res[j] = std::sqrt(r2);
  });
  double sum_res = 0.0, sum_d2 = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    sum_res += col_res[j];
    sum_d2 += values[j] * values[j];
  }
  return sum_res /
         (static_cast<double>(m) * std::max(std::sqrt(sum_d2), 1e-300));
}

}  // namespace rsrpa::rpa::detail
