// Mixed-precision driver for the block Krylov solvers (block_cocg with
// SolverOptions::mixed_apply bound).
//
// The recurrence runs in FP32 — half the memory traffic per column on a
// bandwidth-bound operator — while correctness is anchored in FP64 at
// the restart boundary: the outer loop recomputes the TRUE residual
// w = b - A64 y in double, solves the normalized correction system
// A32 z = w / ||w|| in single to a clamped tolerance, and accumulates
// y += ||w|| z in double. This is the same residual-replacement restart
// the resilience ladder's rung 1 performs after a breakdown; here it is
// driven by precision instead of faults, and a stalled outer residual
// escalates into that ladder by throwing NumericalBreakdown.
//
// The inner tolerance is clamped at f32_tol_floor() = sqrt(eps_f32):
// below that an FP32 Krylov solve cannot make reliable progress and
// would spin to max_iter. The FP64 outer loop carries the remainder — each restart
// contracts the true residual by about the floor, so a tol below the
// floor simply costs additional restarts, not accuracy.
#pragma once

#include "solver/operator.hpp"

namespace rsrpa::solver {

/// Lowest relative tolerance an FP32 inner solve is asked for:
/// sqrt(eps_f32) ~ 3.45e-4.
[[nodiscard]] double f32_tol_floor();

/// Solve A Y = B with FP32 inner iterations (block_cocg_f32, the same
/// recurrence as the FP64 solver it stands in for) and FP64 residual
/// replacement. `y` supplies the initial guess on entry and the solution
/// on exit. FP64 applications count in SolveReport::matvec_columns, FP32
/// inner applications in matvec_columns_f32. Throws NumericalBreakdown
/// when the outer residual stops contracting (hand-off to the resilience
/// ladder) or when the inner solver breaks down.
SolveReport mixed_outer_solve(const BlockOpC& a64, const BlockOpC32& a32,
                              const la::Matrix<cplx>& b, la::Matrix<cplx>& y,
                              const SolverOptions& opts);

}  // namespace rsrpa::solver
