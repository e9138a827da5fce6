#include "solver/block_cocg.hpp"
#include <cstdio>

#include <cmath>
#include <functional>
#include <utility>

#include "la/blas.hpp"
#include "la/lu.hpp"
#include "solver/mixed.hpp"

namespace rsrpa::solver {

namespace {

bool is_finite(double x) { return std::isfinite(x); }

// The recurrence over a generic working scalar C (cplx for the FP64
// path, cplxf for the mixed inner iterations). All control-flow scalars
// — norms, tolerances, pivot ratios — stay double either way; only the
// vector storage and the s x s algebra carry C.
template <typename C>
SolveReport block_cocg_core(
    const std::function<void(const la::Matrix<C>&, la::Matrix<C>&)>& a,
    const la::Matrix<C>& b, la::Matrix<C>& y, const SolverOptions& opts) {
  const std::size_t n = b.rows(), s = b.cols();
  RSRPA_REQUIRE(y.rows() == n && y.cols() == s && s >= 1);

  SolveReport rep;
  const double bnorm = la::norm_fro(b);
  if (bnorm == 0.0) {
    y.zero();
    rep.converged = true;
    return rep;
  }

  // W0 = B - A Y0.
  la::Matrix<C> w(n, s);
  a(y, w);
  rep.matvec_columns += static_cast<long>(s);
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i) w(i, j) = b(i, j) - w(i, j);

  la::Matrix<C> rho(s, s);
  la::gemm_tn(C{1}, w, w, C{0}, rho);  // rho_0 = W^T W

  // p_next and rho_new are second buffers: each update writes one and
  // swaps, and both s x s factorizations refactor in place, so an
  // iteration allocates nothing.
  la::Matrix<C> p(n, s), p_next(n, s), u(n, s), mu(s, s), alpha(s, s),
      beta(s, s), rho_new(s, s);
  la::Lu<C> lu_mu, lu_rho;
  bool have_p = false;  // P_{-1} = 0, beta_{-1} = 0

  rep.relative_residual = la::norm_fro(w) / bnorm;
  if (opts.record_history) rep.history.push_back(rep.relative_residual);
  if (rep.relative_residual <= opts.tol) {
    rep.converged = true;
    return rep;
  }

  // A rank-deficient INITIAL residual block (e.g. linearly dependent
  // right-hand sides) makes the block recurrence ill-posed from the
  // start; callers deflate by falling back to smaller blocks. This is the
  // deflation caveat of block methods the paper notes in SS II.
  if (s > 1) {
    lu_rho.factor(rho);
    if (lu_rho.pivot_ratio() < opts.breakdown_tol)
      throw NumericalBreakdown(
          "block COCG: initial residual block is numerically rank-deficient");
  }

  double prev_relres = rep.relative_residual;
  for (int it = 0; it < opts.max_iter; ++it) {
    // P_j = W_j + P_{j-1} beta_{j-1}.
    if (have_p) {
      la::cocg_direction(w, p, beta, p_next);
      std::swap(p, p_next);
    } else {
      p = w;
      have_p = true;
    }

    // U_j = A P_j.
    a(p, u);
    rep.matvec_columns += static_cast<long>(s);

    // mu_j = U_j^T P_j (complex symmetric conjugacy matrix).
    la::gemm_tn(C{1}, u, p, C{0}, mu);

    // alpha_j = mu_j^{-1} rho_j. A tiny pivot ratio in mu is AMBIGUOUS:
    // it signals either a genuine conjugacy breakdown or benign exact
    // termination (the block Krylov space has filled out). Take the step
    // either way and decide from the residual it produces.
    lu_mu.factor(mu);
    const bool mu_suspect = lu_mu.pivot_ratio() < opts.breakdown_tol;
    alpha = rho;
    lu_mu.solve_inplace(alpha);

    // Y_{j+1} = Y_j + P alpha;  W_{j+1} = W_j - U alpha;
    // rho_{j+1} = W_{j+1}^T W_{j+1}, all in one call.
    const double wnorm = la::cocg_update(p, u, alpha, y, w, rho_new);

    rep.iterations = it + 1;
    rep.relative_residual = wnorm / bnorm;
    if (opts.record_history) rep.history.push_back(rep.relative_residual);
    if (!is_finite(rep.relative_residual))
      throw NumericalBreakdown("block COCG: non-finite residual");
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      return rep;
    }
    if (mu_suspect && rep.relative_residual >= prev_relres) {
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "block COCG: conjugacy breakdown (pivot ratio %.3e, "
                    "residual did not decrease at iteration %d)",
                    lu_mu.pivot_ratio(), it);
      throw NumericalBreakdown(msg);
    }
    prev_relres = rep.relative_residual;

    // beta_j = rho_j^{-1} rho_{j+1}.
    lu_rho.factor(rho);
    beta = rho_new;
    lu_rho.solve_inplace(beta);
    std::swap(rho, rho_new);
  }
  return rep;  // not converged
}

}  // namespace

SolveReport block_cocg(const BlockOpC& a, const la::Matrix<cplx>& b,
                       la::Matrix<cplx>& y, const SolverOptions& opts) {
  if (opts.mixed_apply)
    return mixed_outer_solve(a, opts.mixed_apply, b, y, opts);
  return block_cocg_core<cplx>(a, b, y, opts);
}

SolveReport block_cocg_f32(const BlockOpC32& a, const la::Matrix<la::cplxf>& b,
                           la::Matrix<la::cplxf>& y,
                           const SolverOptions& opts) {
  return block_cocg_core<la::cplxf>(a, b, y, opts);
}

SolveReport cocg(const BlockOpC& a, std::span<const cplx> b, std::span<cplx> y,
                 const SolverOptions& opts) {
  const std::size_t n = b.size();
  RSRPA_REQUIRE(y.size() == n);

  SolveReport rep;
  const double bnorm = la::nrm2(b);
  if (bnorm == 0.0) {
    std::fill(y.begin(), y.end(), cplx{});
    rep.converged = true;
    return rep;
  }

  // Wrap spans in single-column matrices for the operator interface.
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
  if (opts.record_history) rep.history.push_back(rep.relative_residual);
  if (rep.relative_residual <= opts.tol) {
    rep.converged = true;
    return rep;
  }

  cplx beta{};
  bool have_p = false;
  double prev_relres = rep.relative_residual;
  for (int it = 0; it < opts.max_iter; ++it) {
    if (have_p) {
      for (std::size_t i = 0; i < n; ++i) p[i] = w[i] + beta * p[i];
    } else {
      p.assign(w.begin(), w.end());
      have_p = true;
    }
    apply(p, u);
    const cplx mu = la::dot_u(u, p);
    // A tiny conjugacy scalar is AMBIGUOUS — genuine breakdown or benign
    // exact termination — exactly like a tiny pivot ratio in the block
    // path above. Mirror it: take the step either way and decide from the
    // residual it produces.
    const bool mu_suspect =
        std::abs(mu) < opts.breakdown_tol *
                           la::nrm2(std::span<const cplx>(u)) *
                           la::nrm2(std::span<const cplx>(p));
    const cplx alpha = rho / mu;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += alpha * p[i];
      w[i] -= alpha * u[i];
    }
    rep.iterations = it + 1;
    rep.relative_residual = la::nrm2(std::span<const cplx>(w)) / bnorm;
    if (opts.record_history) rep.history.push_back(rep.relative_residual);
    if (!std::isfinite(rep.relative_residual))
      throw NumericalBreakdown("COCG: non-finite residual");
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      return rep;
    }
    if (mu_suspect && rep.relative_residual >= prev_relres) {
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "COCG: conjugacy breakdown (|mu| = %.3e, residual did "
                    "not decrease at iteration %d)",
                    std::abs(mu), it);
      throw NumericalBreakdown(msg);
    }
    prev_relres = rep.relative_residual;
    const cplx rho_new = la::dot_u(w, w);
    beta = rho_new / rho;
    rho = rho_new;
  }
  return rep;
}

}  // namespace rsrpa::solver
