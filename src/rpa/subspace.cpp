#include "rpa/subspace.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "obs/event_log.hpp"
#include "sched/parallel_for.hpp"
#include "solver/chebyshev.hpp"

namespace rsrpa::rpa {

namespace {

// One Rayleigh-Ritz pass: project, solve the generalized symmetric
// eigenproblem, rotate V, then evaluate the Eq. (7) error with a fresh
// operator application (the paper's "eval error" kernel).
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
  apply(v, av, false);

  la::Matrix<double> hs(m, m), ms(m, m);
  {
    WallTimer t;
    la::gemm_tn(1.0, v, av, 0.0, hs);
    la::gemm_tn(1.0, v, v, 0.0, ms);
    if (timers != nullptr) timers->add(kernels::kMatmult, t.seconds());
  }
  // Inexact Sternheimer solves leave H_s slightly asymmetric; symmetrize
  // before the generalized eigensolve (the subspace-iteration-under-
  // perturbation regime of paper SS IV-B).
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t i = 0; i < j; ++i) {
      const double avg = 0.5 * (hs(i, j) + hs(j, i));
      hs(i, j) = avg;
      hs(j, i) = avg;
    }

  la::EigResult sub;
  bool collapsed = false;
  {
    WallTimer t;
    try {
      sub = la::sym_eig_gen(hs, ms);
    } catch (const NumericalBreakdown& breakdown) {
      // Filtering collapsed the block numerically: orthonormalize and
      // re-project with M_s = I.
      collapsed = true;
      if (events != nullptr)
        events->emit(obs::events::kEigensolveCollapse, breakdown.what(),
                     {{"omega", omega},
                      {"subspace_dim", static_cast<double>(m)}});
      la::orthonormalize(v);
      apply(v, av, false);
      la::gemm_tn(1.0, v, av, 0.0, hs);
      sub = la::sym_eig(hs);
    }
    if (timers != nullptr) timers->add(kernels::kEigensolve, t.seconds());
  }

  {
    WallTimer t;
    la::Matrix<double> rotated(n, m);
    la::gemm_nn(1.0, v, sub.vectors, 0.0, rotated);
    v = std::move(rotated);
    if (timers != nullptr) timers->add(kernels::kMatmult, t.seconds());
  }

  // Convergence check, Eq. (7): a fresh apply A V_rot plus the norm
  // reductions (the MPI_Allreduce in the distributed setting).
  RrOutcome out;
  out.values = sub.values;
  out.collapsed = collapsed;
  {
    WallTimer t;
    apply(v, av, true);  // timed here, under eval_error
    // Per-column residual norms fan out (disjoint slots); the final sum
    // stays serial in ascending j so the error — and through it every
    // filtering decision — is bitwise identical at any thread count.
    std::vector<double> col_res(m, 0.0);
    sched::parallel_for(
        0, m, 4,
        [&](std::size_t j) {
          double r2 = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            const double r = av(i, j) - sub.values[j] * v(i, j);
            r2 += r * r;
          }
          col_res[j] = std::sqrt(r2);
        });
    double sum_res = 0.0, sum_d2 = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      sum_res += col_res[j];
      sum_d2 += sub.values[j] * sub.values[j];
    }
    out.error = sum_res / (static_cast<double>(m) *
                           std::max(std::sqrt(sum_d2), 1e-300));
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

    solver::BlockOpR a_op = [&](const la::Matrix<double>& in,
                                la::Matrix<double>& out) {
      apply(in, out, false);
    };
    solver::chebyshev_filter_op(a_op, v, opts.cheb_degree, damp_lo, damp_hi,
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
      [&](const la::Matrix<double>& in, la::Matrix<double>& out,
          bool eval_error) {
        op.apply(in, out, omega, stats, eval_error ? nullptr : timers);
      },
      omega, v, opts, timers, events);
}

}  // namespace rsrpa::rpa
