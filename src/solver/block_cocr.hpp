// Block conjugate orthogonal conjugate residual.
//
// The block generalization of COCR (the residual-minimizing sibling of
// COCG in the complex-symmetric family of paper ref [39]), mirroring
// Algorithm 3's structure: one operator application and a handful of
// O(n s^2) products per iteration, with s x s solves through the
// conjugacy matrices. Compared to block COCG it maintains A R alongside R
// (one extra block of memory) and tends to produce smoother residual
// histories on the highly indefinite near-(n_s, l) Sternheimer systems.
#pragma once

#include "solver/operator.hpp"

namespace rsrpa::solver {

/// Solve A Y = B, A complex symmetric, with block size s = B.cols().
/// `y` supplies the initial guess and receives the solution. FP64 only:
/// opts.precision and opts.mixed_apply are ignored (the recovery ladder
/// reaches it as a rung-3 swap, where robustness beats speed).
SolveReport block_cocr(const BlockOpC& a, const la::Matrix<cplx>& b,
                       la::Matrix<cplx>& y, const SolverOptions& opts = {});

}  // namespace rsrpa::solver
