#include "solver/block_cocr.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "la/lu.hpp"

namespace rsrpa::solver {

SolveReport block_cocr(const BlockOpC& a, const la::Matrix<cplx>& b,
                       la::Matrix<cplx>& y, const SolverOptions& opts) {
  const std::size_t n = b.rows(), s = b.cols();
  RSRPA_REQUIRE(y.rows() == n && y.cols() == s && s >= 1);

  SolveReport rep;
  const double bnorm = la::norm_fro(b);
  if (bnorm == 0.0) {
    y.zero();
    rep.converged = true;
    return rep;
  }

  // R = B - A Y0; AR = A R.
  la::Matrix<cplx> r(n, s), ar(n, s);
  a(y, r);
  rep.matvec_columns += static_cast<long>(s);
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i) r(i, j) = b(i, j) - r(i, j);

  rep.relative_residual = la::norm_fro(r) / bnorm;
  if (opts.record_history) rep.history.push_back(rep.relative_residual);
  if (rep.relative_residual <= opts.tol) {
    rep.converged = true;
    return rep;
  }

  a(r, ar);
  rep.matvec_columns += static_cast<long>(s);

  la::Matrix<cplx> p = r, ap = ar;
  la::Matrix<cplx> rho(s, s), rho_new(s, s), sigma(s, s), alpha(s, s),
      beta(s, s);
  la::gemm_tn(cplx{1}, r, ar, cplx{0}, rho);  // rho = R^T A R

  double prev_relres = rep.relative_residual;
  for (int it = 0; it < opts.max_iter; ++it) {
    // sigma = (A P)^T (A P); alpha = sigma^{-1} rho.
    la::gemm_tn(cplx{1}, ap, ap, cplx{0}, sigma);
    la::Lu<cplx> lu_sigma(sigma);
    const bool suspect = lu_sigma.pivot_ratio() < opts.breakdown_tol;
    alpha = rho;
    lu_sigma.solve_inplace(alpha);

    la::gemm_nn(cplx{1}, p, alpha, cplx{1}, y);
    la::gemm_nn(cplx{-1}, ap, alpha, cplx{1}, r);

    rep.iterations = it + 1;
    rep.relative_residual = la::norm_fro(r) / bnorm;
    if (opts.record_history) rep.history.push_back(rep.relative_residual);
    if (!std::isfinite(rep.relative_residual))
      throw NumericalBreakdown("block COCR: non-finite residual");
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      return rep;
    }
    if (suspect && rep.relative_residual >= prev_relres)
      throw NumericalBreakdown(
          "block COCR: (AP)^T(AP) breakdown without residual progress");
    prev_relres = rep.relative_residual;

    a(r, ar);
    rep.matvec_columns += static_cast<long>(s);
    la::gemm_tn(cplx{1}, r, ar, cplx{0}, rho_new);

    la::Lu<cplx> lu_rho(rho);
    beta = rho_new;
    lu_rho.solve_inplace(beta);
    rho = rho_new;

    // P = R + P beta; AP = AR + AP beta.
    la::Matrix<cplx> pnew = r;
    la::gemm_nn(cplx{1}, p, beta, cplx{1}, pnew);
    p = std::move(pnew);
    la::Matrix<cplx> apnew = ar;
    la::gemm_nn(cplx{1}, ap, beta, cplx{1}, apnew);
    ap = std::move(apnew);
  }
  return rep;
}

}  // namespace rsrpa::solver
