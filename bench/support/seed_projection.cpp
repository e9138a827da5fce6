#include "support/seed_projection.hpp"

#include <cmath>

#include "la/blas.hpp"

namespace rsrpa::solver {

SolveReport cocg_store_basis(const BlockOpC& a, std::span<const cplx> b,
                             std::span<cplx> y, SeedBasis& basis,
                             const SolverOptions& opts) {
  const std::size_t n = b.size();
  RSRPA_REQUIRE(y.size() == n);

  SolveReport rep;
  basis.directions = la::Matrix<cplx>(n, 0);
  basis.mu.clear();

  const double bnorm = la::nrm2(b);
  if (bnorm == 0.0) {
    std::fill(y.begin(), y.end(), cplx{});
    rep.converged = true;
    return rep;
  }

  la::Matrix<cplx> xcol(n, 1), ycol(n, 1);
  auto apply = [&](std::span<const cplx> in, std::span<cplx> out) {
    std::copy(in.begin(), in.end(), xcol.col(0).begin());
    a(xcol, ycol);
    std::copy(ycol.col(0).begin(), ycol.col(0).end(), out.begin());
    rep.matvec_columns += 1;
  };

  std::vector<cplx> w(n), p(n), u(n);
  apply(y, w);
  for (std::size_t i = 0; i < n; ++i) w[i] = b[i] - w[i];
  cplx rho = la::dot_u(w, w);
  rep.relative_residual = la::nrm2(std::span<const cplx>(w)) / bnorm;
  if (rep.relative_residual <= opts.tol) {
    rep.converged = true;
    return rep;
  }

  // Pre-size the stored basis to max_iter columns; shrink on exit.
  la::Matrix<cplx> store(n, static_cast<std::size_t>(opts.max_iter));
  cplx beta{};
  bool have_p = false;
  int k = 0;
  for (int it = 0; it < opts.max_iter; ++it) {
    if (have_p) {
      for (std::size_t i = 0; i < n; ++i) p[i] = w[i] + beta * p[i];
    } else {
      p.assign(w.begin(), w.end());
      have_p = true;
    }
    apply(p, u);
    const cplx mu = la::dot_u(u, p);
    if (std::abs(mu) == 0.0)
      throw NumericalBreakdown("seed COCG: conjugacy scalar vanished");

    std::copy(p.begin(), p.end(), store.col(static_cast<std::size_t>(k)).begin());
    basis.mu.push_back(mu);
    ++k;

    const cplx alpha = rho / mu;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += alpha * p[i];
      w[i] -= alpha * u[i];
    }
    rep.iterations = it + 1;
    rep.relative_residual = la::nrm2(std::span<const cplx>(w)) / bnorm;
    if (!std::isfinite(rep.relative_residual))
      throw NumericalBreakdown("seed COCG: non-finite residual");
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      break;
    }
    const cplx rho_new = la::dot_u(w, w);
    beta = rho_new / rho;
    rho = rho_new;
  }

  basis.directions = store.slice_cols(0, static_cast<std::size_t>(k));
  return rep;
}

la::Matrix<cplx> seed_project(const SeedBasis& basis,
                              const la::Matrix<cplx>& b) {
  const std::size_t n = b.rows(), s = b.cols();
  const std::size_t k = basis.directions.cols();
  RSRPA_REQUIRE(basis.directions.rows() == n && basis.mu.size() == k);

  // C = P^T B (unconjugated), then scale row j by 1/mu_j, then Y0 = P C.
  la::Matrix<cplx> coef(k, s);
  la::gemm_tn(cplx{1}, basis.directions, b, cplx{0}, coef);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t c = 0; c < s; ++c) coef(j, c) /= basis.mu[j];
  la::Matrix<cplx> y0(n, s);
  la::gemm_nn(cplx{1}, basis.directions, coef, cplx{0}, y0);
  return y0;
}

}  // namespace rsrpa::solver
