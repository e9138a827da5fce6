// Restarted GMRES — the no-short-recurrence baseline of the paper, and
// rung 3 of the breakdown-recovery ladder (solver/resilience.hpp).
//
// The paper motivates COCG by noting that GMRES "becomes computationally
// expensive as the iteration count grows due to lacking a short-term
// recurrence" (SS III-B); the A2 ablation demonstrates that trade-off:
// this implementation stores the full Arnoldi basis per restart cycle
// and orthogonalizes each new direction against all of it. The same
// Hermitian inner products are why the ladder hands it the single
// columns whose quasi-null residuals (w^T w = 0, w != 0) break every
// bilinear-form method.
#pragma once

#include "solver/operator.hpp"

namespace rsrpa::solver {

struct GmresOptions {
  int max_iter = 1000;   ///< total Arnoldi steps across restarts
  int restart = 50;      ///< Krylov dimension per cycle
  double tol = 1e-10;    ///< relative residual
  bool record_history = false;
};

/// Solve A y = b (single right-hand side) with restarted GMRES; `y`
/// carries the initial guess in and the solution out.
SolveReport gmres(const BlockOpC& a, std::span<const cplx> b,
                  std::span<cplx> y, const GmresOptions& opts = {});

}  // namespace rsrpa::solver
