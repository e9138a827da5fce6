#include "rpa/subspace.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "obs/event_log.hpp"
#include "rpa/ritz.hpp"

namespace rsrpa::rpa {

namespace {

// One Rayleigh-Ritz pass: project, solve the generalized symmetric
// eigenproblem, rotate V, then evaluate the Eq. (7) error. A is linear, so
// the rotated block's image A (V Q) is the projection's A V rotated by the
// same Q: the check needs no further operator application. (The paper's
// "eval error" kernel applies A afresh; here it is the norm reduction.)
struct RrOutcome {
  std::vector<double> values;
  double error = 0.0;
  bool collapsed = false;  ///< generalized eigensolve fell back to sym_eig
};

RrOutcome rayleigh_ritz_and_error(const SubspaceApply& apply, double omega,
                                  la::Matrix<double>& v, KernelTimers* timers,
                                  obs::EventLog* events) {
  const std::size_t n = v.rows(), m = v.cols();
  la::Matrix<double> av(n, m);
  apply(v, av);

  la::Matrix<double> hs(m, m), ms(m, m);
  {
    WallTimer t;
    la::gemm_tn(1.0, v, av, 0.0, hs);
    la::gemm_tn(1.0, v, v, 0.0, ms);
    if (timers != nullptr) timers->add(kernels::kMatmult, t.seconds());
  }
  detail::symmetrize(hs);

  la::EigResult sub;
  bool collapsed = false;
  {
    WallTimer t;
    try {
      sub = la::sym_eig_gen(hs, ms);
    } catch (const NumericalBreakdown& breakdown) {
      // Filtering collapsed the block numerically: orthonormalize and
      // re-project with M_s = I; av is then the orthonormal block's image.
      collapsed = true;
      if (events != nullptr)
        events->emit(obs::events::kEigensolveCollapse, breakdown.what(),
                     {{"omega", omega},
                      {"subspace_dim", static_cast<double>(m)}});
      la::orthonormalize(v);
      apply(v, av);
      la::gemm_tn(1.0, v, av, 0.0, hs);
      sub = la::sym_eig(hs);
    }
    if (timers != nullptr) timers->add(kernels::kEigensolve, t.seconds());
  }

  {
    WallTimer t;
    la::Matrix<double> rotated(n, m), arotated(n, m);
    la::gemm_nn(1.0, v, sub.vectors, 0.0, rotated);
    la::gemm_nn(1.0, av, sub.vectors, 0.0, arotated);
    v = std::move(rotated);
    av = std::move(arotated);
    if (timers != nullptr) timers->add(kernels::kMatmult, t.seconds());
  }

  RrOutcome out;
  out.values = std::move(sub.values);
  out.collapsed = collapsed;
  {
    WallTimer t;
    std::vector<double> col_res;
    out.error = detail::ritz_residual(v, av, out.values, m, col_res);
    if (timers != nullptr) timers->add(kernels::kEvalError, t.seconds());
  }
  return out;
}

}  // namespace

SubspaceResult subspace_iteration(const SubspaceApply& apply, double omega,
                                  la::Matrix<double>& v,
                                  const SubspaceOptions& opts,
                                  KernelTimers* timers,
                                  obs::EventLog* events) {
  RSRPA_REQUIRE(v.cols() >= 1);
  SubspaceResult res;

  // Lines 2-5 of Algorithm 5: Rayleigh-Ritz on the initial guess with NO
  // filtering; an accurate warm start exits here with ncheb = 0.
  RrOutcome rr = rayleigh_ritz_and_error(apply, omega, v, timers, events);
  res.eigenvalues = rr.values;
  res.error = rr.error;
  res.converged = rr.error <= opts.tol;
  if (rr.collapsed) ++res.eigensolve_collapses;

  while (!res.converged && res.filter_iterations < opts.max_filter_iter) {
    // Filter: damp the unwanted tail (largest Ritz value, 0]; everything
    // more negative is amplified. a0 anchors the scaling at the most
    // negative Ritz value.
    const double d_min = res.eigenvalues.front();  // most negative
    const double d_max = res.eigenvalues.back();   // closest to zero
    const double span = std::max(std::abs(d_min), 1e-12);
    const double damp_hi = 1e-6 * span;  // just above zero
    // Inexact Sternheimer solves can push the top Ritz value to (or past)
    // zero; clamp so the damp interval stays valid (lo < hi).
    const double damp_lo = std::min(d_max, -1e-9 * span);
    const double a0 = std::min(d_min, damp_lo - 1e-6 * span);

    solver::chebyshev_filter_op(apply, v, opts.cheb_degree, damp_lo, damp_hi,
                                a0);

    rr = rayleigh_ritz_and_error(apply, omega, v, timers, events);
    res.eigenvalues = rr.values;
    res.error = rr.error;
    res.converged = rr.error <= opts.tol;
    if (rr.collapsed) ++res.eigensolve_collapses;
    ++res.filter_iterations;
  }
  return res;
}

SubspaceResult subspace_iteration(const NuChi0Operator& op, double omega,
                                  la::Matrix<double>& v,
                                  const SubspaceOptions& opts,
                                  SternheimerStats* stats,
                                  KernelTimers* timers,
                                  obs::EventLog* events) {
  RSRPA_REQUIRE(v.rows() == op.n_grid());
  return subspace_iteration(
      [&](const la::Matrix<double>& in, la::Matrix<double>& out) {
        op.apply(in, out, omega, stats, timers);
      },
      omega, v, opts, timers, events);
}

}  // namespace rsrpa::rpa
