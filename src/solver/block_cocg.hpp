// Block conjugate orthogonal conjugate gradient — Algorithm 3 of the
// paper: the short-term-recurrence block Krylov method for complex
// SYMMETRIC (A = A^T, not Hermitian) coefficient matrices, the paper's
// central solver contribution. Every inner product is the unconjugated
// bilinear form, which is what the A = A^T structure pairs with.
//
// Per iteration: one block operator application (s columns), five
// O(n s^2) matrix-matrix products, and two O(s^3) small solves — the cost
// structure analyzed in paper SS III-B/C. Termination follows Eq. 10:
// ||W||_F / ||B||_F <= tol. A nearly singular conjugacy matrix mu or a
// non-finite residual raises NumericalBreakdown.
#pragma once

#include "solver/operator.hpp"

namespace rsrpa::solver {

/// Solve A Y = B with block size s = B.cols(). `y` supplies the initial
/// guess on entry and the solution on exit. When opts.mixed_apply is
/// bound, dispatches to the FP32 inner / FP64 residual-replacement
/// driver (solver/mixed.hpp) with block_cocg_f32 as the inner solver;
/// otherwise the solve runs entirely in FP64.
SolveReport block_cocg(const BlockOpC& a, const la::Matrix<cplx>& b,
                       la::Matrix<cplx>& y, const SolverOptions& opts = {});

/// The same recurrence over FP32 storage — the inner solver of the mixed
/// path, public for direct testing. Ignores opts.mixed_apply.
SolveReport block_cocg_f32(const BlockOpC32& a, const la::Matrix<la::cplxf>& b,
                           la::Matrix<la::cplxf>& y,
                           const SolverOptions& opts = {});

/// Non-block COCG (van der Vorst & Melissen), the s = 1 specialization
/// kept as an independent implementation for cross-checks and the
/// BLAS-2 vs BLAS-3 comparisons.
SolveReport cocg(const BlockOpC& a, std::span<const cplx> b,
                 std::span<cplx> y, const SolverOptions& opts = {});

}  // namespace rsrpa::solver
