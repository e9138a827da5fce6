// Subspace iteration with Chebyshev polynomial filtering on the
// symmetrized operator nu^{1/2} chi0(i omega) nu^{1/2} — Algorithm 5.
//
// The caller supplies V (in/out): a random block for the first quadrature
// point, the converged eigenvectors of the previous omega afterwards
// (paper SS III-F). Following Algorithm 5, a Rayleigh-Ritz + convergence
// check runs BEFORE any filtering, so an accurate warm start can converge
// with zero filter applications — the "skip polynomial filtering" effect
// visible as ncheb = 0 rows in the artifact log.
#pragma once

#include "rpa/nu_chi0.hpp"
#include "solver/chebyshev.hpp"

namespace rsrpa::rpa {

struct SubspaceOptions {
  double tol = 5e-4;         ///< tau_SI for this quadrature point
  int max_filter_iter = 10;  ///< MAXIT_FILTERING
  int cheb_degree = 2;       ///< CHEB_DEGREE_RPA
};

struct SubspaceResult {
  std::vector<double> eigenvalues;  ///< ascending (most negative first)
  int filter_iterations = 0;        ///< "ncheb" — filter passes used
  double error = 0.0;               ///< Eq. (7) at exit
  bool converged = false;
  int eigensolve_collapses = 0;     ///< generalized eigensolve fallbacks
};

/// Applies nu^{1/2} chi0(i omega) nu^{1/2} to a block at the iteration's
/// frequency — the same closure shape ssa_project takes. subspace_iteration
/// calls it once per Rayleigh-Ritz projection and cheb_degree times per
/// filter pass; the Eq. (7) check reuses the projection's image and
/// applies nothing. The closure owns the Sternheimer telemetry sinks and
/// the nu_chi0_apply timer.
using SubspaceApply = solver::BlockOpR;

/// Run Algorithm 5 at frequency `omega`. `v` holds the initial subspace on
/// entry and the converged (orthonormal) eigenvector block on exit.
/// `timers` (optional) receives the matmult, eigensolve and eval_error
/// kernels; eval_error is the Eq. (7) norm reduction alone. `events`
/// (optional) records eigensolve collapses — the filtered block going
/// numerically rank-deficient and forcing the orthonormalize +
/// standard-eigensolve recovery path, which applies the operator once
/// more. `omega` only labels those events; `apply` fixes the frequency.
SubspaceResult subspace_iteration(const SubspaceApply& apply, double omega,
                                  la::Matrix<double>& v,
                                  const SubspaceOptions& opts,
                                  KernelTimers* timers = nullptr,
                                  obs::EventLog* events = nullptr);

/// Algorithm 5 on `op` itself, accumulating into `stats` and `timers`.
SubspaceResult subspace_iteration(const NuChi0Operator& op, double omega,
                                  la::Matrix<double>& v,
                                  const SubspaceOptions& opts,
                                  SternheimerStats* stats = nullptr,
                                  KernelTimers* timers = nullptr,
                                  obs::EventLog* events = nullptr);

}  // namespace rsrpa::rpa
