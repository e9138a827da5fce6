// Operator and report types shared by the Krylov solvers.
//
// The solvers are matrix-free: a coefficient operator is any callable
// applying A to a block of complex vectors. The Sternheimer systems bind
// this to ShiftedHamiltonianOp (the fused single-sweep pipeline over
// Hamiltonian::apply_shifted_block); unit tests bind it to small dense
// matrices.
#pragma once

#include <functional>
#include <vector>

#include "la/matrix.hpp"

namespace rsrpa::ham {
class Hamiltonian;
}  // namespace rsrpa::ham

namespace rsrpa::solver {

using la::cplx;

/// out = A * in for a block of complex vectors (same shapes).
using BlockOpC = std::function<void(const la::Matrix<cplx>&, la::Matrix<cplx>&)>;

/// FP32 twin of BlockOpC: the inner-iteration operator of the
/// mixed-precision solvers (solver/mixed.hpp). Must apply the SAME
/// coefficient operator as the FP64 op, rounded to single precision.
using BlockOpC32 =
    std::function<void(const la::Matrix<la::cplxf>&, la::Matrix<la::cplxf>&)>;

struct SolverOptions {
  int max_iter = 1000;
  double tol = 1e-10;             ///< relative Frobenius residual (Eq. 10)
  double breakdown_tol = 1e-14;   ///< pivot-ratio floor for s x s solves
  bool record_history = false;    ///< store per-iteration relative residuals
  /// FP32 application of the same coefficient operator. Bound = the
  /// mixed path: block_cocg runs its Krylov recurrence in FP32 through
  /// this with FP64 residual replacement on the outer loop
  /// (solver/mixed.hpp). Unset = the solve runs entirely in FP64. The
  /// contract per driver is bitwise-or-tolerance: FP64 results are
  /// bitwise reproducible, mixed results agree with FP64 to the driver's
  /// tolerance (<= 1e-4 Ha/atom at the energy).
  BlockOpC32 mixed_apply;
};

struct SolveReport {
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
  long matvec_columns = 0;  ///< # of FP64 single-vector operator applications
  long matvec_columns_f32 = 0;  ///< # of FP32 inner-iteration applications
  std::vector<double> history;  ///< per-iteration relres if recorded
};

/// Estimated per-column memory traffic and flops of one application of
/// (H - lambda I + i omega I) to a complex vector by the fused
/// single-sweep pipeline. The sweep counting follows the paper's SS III-C fast-memory model:
/// stencil neighbors hit in cache, so each sweep reads its operands once.
/// solve_dynamic_block is the one place that turns applied column counts
/// into modeled bytes and flops with it (DynamicBlockOptions::cost).
struct ApplyCostModel {
  double bytes_per_column = 0.0;
  double flops_per_column = 0.0;
};

/// `elem_bytes` is the REAL word size of the sweep (8 for the FP64/cplx
/// pipeline, 4 for the FP32 inner kernel) — every stream in the model
/// (vectors, V_loc copy, nonlocal values) scales with it, so FP32
/// workspaces report half the bytes per column at identical flop counts.
[[nodiscard]] ApplyCostModel shifted_apply_cost(const ham::Hamiltonian& h,
                                                double elem_bytes = 8.0);

/// The Sternheimer coefficient operator A_{j,k} = H - lambda_j I
/// + i omega_k I as a first-class block operator: chi0 binds this (rather
/// than a per-column lambda) so every solve goes through the fused
/// single-sweep pipeline. Convertible to BlockOpC by reference capture.
class ShiftedHamiltonianOp {
 public:
  ShiftedHamiltonianOp(const ham::Hamiltonian& h, double lambda, double omega);

  void apply(const la::Matrix<cplx>& in, la::Matrix<cplx>& out) const;
  void operator()(const la::Matrix<cplx>& in, la::Matrix<cplx>& out) const {
    apply(in, out);
  }

  /// FP32 application of the same shifted operator (the mixed-precision
  /// inner kernel).
  void apply_f32(const la::Matrix<la::cplxf>& in,
                 la::Matrix<la::cplxf>& out) const;

  [[nodiscard]] double lambda() const { return lambda_; }
  [[nodiscard]] double omega() const { return omega_; }

 private:
  const ham::Hamiltonian* h_;
  double lambda_ = 0.0;
  double omega_ = 0.0;
};

}  // namespace rsrpa::solver
