// Layer spans measured from outside the library.
//
// layer_trace.cpp defines a timing shim for each library function named in
// CMakeLists.txt's RPABENCH_WRAPPED list; the linker routes every
// cross-object call of that function through the shim (--wrap). With
// tracing off a shim is one relaxed load and a tail call, so the untraced
// runs measure today's program; with tracing on it adds the call's wall
// time and column count into a process-wide atomic bucket.
// Calls may come from any pool thread, so the buckets sum thread-seconds:
// a layer that runs on four lanes for 1 s reports 4 s.
#pragma once

#include <array>
#include <cstddef>

namespace perfbench {

enum class Layer : std::size_t {
  kNuChi0Apply,      ///< rpa::NuChi0Operator::apply (driver thread)
  kChi0Apply,        ///< rpa::Chi0Applier::apply
  kSolve,            ///< solver::solve_dynamic_block (pool threads)
  kSolveOp,          ///< the operator as the solver sees it (BlockOpC shim)
  kHamApply,         ///< solver::ShiftedHamiltonianOp::apply
  kHamApplyF32,      ///< solver::ShiftedHamiltonianOp::apply_f32
  kNuSqrt,           ///< poisson::KroneckerLaplacian::apply_nu_sqrt_block
  kSsaProject,       ///< rpa::ssa_project
  kFullDiag,         ///< direct::full_diagonalization
  kDirectPoint,      ///< direct::nu_chi0_spectrum (one quadrature point)
  kCheckpointSave,   ///< io::save_run_checkpoint
  kCheckpointLoad,   ///< io::load_run_checkpoint
  kCount
};

struct LayerTotals {
  double seconds = 0.0;
  long columns = 0;  ///< block columns handed to the call (0 if none)
};

/// Totals folded from the DynamicBlockReports the wrapped solver returned.
struct SolverTotals {
  long chunks = 0;
  long block1_chunks = 0;
  long matvec_columns = 0;
  long matvec_columns_f32 = 0;
  double bytes_modeled = 0.0;  ///< the library's per-column cost model
  double flops_modeled = 0.0;
  long retries = 0;            ///< restarts + deflations + solver swaps
  long quarantined = 0;
};

struct TraceSnapshot {
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> layers{};
  SolverTotals solver;
  double checkpoint_bytes = 0.0;  ///< file size after each save, summed

  [[nodiscard]] const LayerTotals& at(Layer l) const {
    return layers[static_cast<std::size_t>(l)];
  }
};

void set_tracing(bool on);
void reset_trace();
[[nodiscard]] TraceSnapshot trace_snapshot();

}  // namespace perfbench
