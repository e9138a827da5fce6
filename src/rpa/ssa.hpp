// Static subspace approximation — the projection-only evaluation behind
// quadrature-point elision (Weinberg et al., arXiv:2405.20258; see
// SsaOptions in rpa/erpa.hpp and DESIGN.md "Static subspace
// approximation").
//
// Once the warm-start basis B is frozen, a remaining frequency needs no
// filtered subspace iteration: one operator application A B at the new
// omega, the projected pencil (B^T A B, B^T B), a small dense eigensolve,
// and an a-posteriori residual — all without rotating or refining B.
// Further applications — of the Ritz residual vectors themselves — then
// refine the estimate: each round runs Rayleigh-Ritz on the augmented
// basis [X | R] (the Jacobi-Davidson expansion), capturing the
// next-order rotation of the frozen subspace at the new omega and
// shrinking both the eigenvalue bias and the a-posteriori bound by an
// order of magnitude or more. The loop stops once the residual reaches
// the caller's augmentation target and is hard-capped at three fused
// applies total — still several times cheaper than a full solve. The
// residual reuses the Eq. (7) normalization of the full driver, so
// SSA_RESIDUAL_TOL lives on the same scale as TOL_EIG.
#pragma once

#include "rpa/nu_chi0.hpp"
#include "solver/chebyshev.hpp"

namespace rsrpa::rpa {

/// Outcome of one projection-only evaluation against a frozen basis.
struct SsaProjection {
  std::vector<double> eigenvalues;  ///< Ritz values of the pencil, ascending
  /// Eq. (7)-style residual of the Ritz pairs: sum_j ||A x_j - mu_j x_j||
  /// over (m * max(||mu||_2, eps)), with x_j the Ritz vectors B y_j.
  double residual = 0.0;
  /// The projected generalized eigensolve broke down (numerically
  /// rank-deficient frozen basis). The caller must fall back to a full
  /// solve; eigenvalues/residual are meaningless.
  bool collapsed = false;
  double matmult_seconds = 0.0;     ///< Gram + Ritz-vector GEMMs
  double eigensolve_seconds = 0.0;  ///< projected dense eigensolve
  double residual_seconds = 0.0;    ///< residual evaluation (eval_error)
};

/// Evaluate the projected pencil of the frozen basis `basis` at one
/// frequency. `apply` applies nu^{1/2} chi0(i omega) nu^{1/2} at that
/// frequency (the caller owns omega and the telemetry sinks). `basis` is
/// never modified: the whole point of the freeze is that elided points
/// leave the subspace bitwise untouched. On an eigensolve breakdown the
/// function emits eigensolve_collapse into `events` (when non-null) and
/// returns with `collapsed` set instead of mutating the basis the way the
/// full driver's recovery path would.
///
/// `aug_target` is the residual at which the augmentation loop stops
/// early (<= 0 keeps augmenting to the apply cap). The drivers pass a
/// fraction of SSA_RESIDUAL_TOL so accepted elisions land comfortably
/// under the guard without spending applies past the point of use.
///
/// Determinism: the per-column residual norms fan out over the sched pool
/// into disjoint slots and reduce serially in ascending column order, so
/// the residual — and through it every elide/fallback decision — is
/// bitwise identical at any thread count.
SsaProjection ssa_project(const solver::BlockOpR& apply,
                          const la::Matrix<double>& basis, double omega,
                          obs::EventLog* events, double aug_target = 0.0);

}  // namespace rsrpa::rpa
