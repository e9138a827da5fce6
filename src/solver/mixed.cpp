#include "solver/mixed.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>

#include "la/blas.hpp"
#include "solver/block_cocg.hpp"

namespace rsrpa::solver {

double f32_tol_floor() { return std::sqrt(static_cast<double>(FLT_EPSILON)); }

SolveReport mixed_outer_solve(const BlockOpC& a64, const BlockOpC32& a32,
                              const la::Matrix<cplx>& b, la::Matrix<cplx>& y,
                              const SolverOptions& opts) {
  const std::size_t n = b.rows(), s = b.cols();
  RSRPA_REQUIRE(y.rows() == n && y.cols() == s && s >= 1);
  RSRPA_REQUIRE_MSG(static_cast<bool>(a32),
                    "mixed_outer_solve: no FP32 operator bound");

  SolveReport rep;
  const double bnorm = la::norm_fro(b);
  if (bnorm == 0.0) {
    y.zero();
    rep.converged = true;
    return rep;
  }

  const double tol_floor = f32_tol_floor();
  SolverOptions iopts;
  // An s x s pivot ratio measured in FP32 arithmetic carries rounding of
  // order eps_f32; a FP64-grade breakdown_tol (1e-14) would never fire.
  iopts.breakdown_tol = std::max(opts.breakdown_tol, 1e-7);

  la::Matrix<cplx> w(n, s);
  la::Matrix<la::cplxf> b32(n, s), z32(n, s);
  double prev_relres = std::numeric_limits<double>::infinity();
  long inner_iters = 0;
  for (;;) {
    // FP64 residual replacement: w = b - A64 y is the true residual, so
    // FP32 rounding inside the inner solve can never silently settle the
    // outer convergence claim.
    a64(y, w);
    rep.matvec_columns += static_cast<long>(s);
    for (std::size_t j = 0; j < s; ++j)
      for (std::size_t i = 0; i < n; ++i) w(i, j) = b(i, j) - w(i, j);
    const double wnorm = la::norm_fro(w);
    rep.relative_residual = wnorm / bnorm;
    if (opts.record_history) rep.history.push_back(rep.relative_residual);
    if (!std::isfinite(rep.relative_residual))
      throw NumericalBreakdown("mixed solve: non-finite outer residual");
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      return rep;
    }
    if (rep.relative_residual >= 0.9 * prev_relres) {
      // The FP32 correction stopped contracting the true residual
      // (conditioning beyond single-precision reach, or a poisoned
      // iterate). Escalate to the resilience ladder.
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "mixed solve: outer residual stalled at %.3e after FP32 "
                    "correction",
                    rep.relative_residual);
      throw NumericalBreakdown(msg);
    }
    prev_relres = rep.relative_residual;
    if (inner_iters >= opts.max_iter) return rep;  // budget spent, unconverged

    // Normalized FP32 correction system A32 z = w / ||w||: the scaling
    // keeps the RHS away from the FP32 range edges regardless of how far
    // the outer residual has contracted. The inner target is whatever
    // remains of the caller's tolerance, clamped to what FP32 can reach.
    const double inv = 1.0 / wnorm;
    for (std::size_t j = 0; j < s; ++j)
      for (std::size_t i = 0; i < n; ++i)
        b32(i, j) = la::cplxf(static_cast<float>(w(i, j).real() * inv),
                              static_cast<float>(w(i, j).imag() * inv));
    z32.zero();
    iopts.tol = std::clamp(opts.tol / rep.relative_residual, tol_floor, 0.5);
    iopts.max_iter = static_cast<int>(opts.max_iter - inner_iters);
    const SolveReport ir = block_cocg_f32(a32, b32, z32, iopts);
    inner_iters += ir.iterations;
    rep.iterations += ir.iterations;
    rep.matvec_columns_f32 += ir.matvec_columns;

    // Accumulate the correction in FP64: y += ||w|| z.
    for (std::size_t j = 0; j < s; ++j)
      for (std::size_t i = 0; i < n; ++i)
        y(i, j) += wnorm * cplx(static_cast<double>(z32(i, j).real()),
                                static_cast<double>(z32(i, j).imag()));
  }
}

}  // namespace rsrpa::solver
