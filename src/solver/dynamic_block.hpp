// Dynamic block size selection — Algorithm 4 of the paper.
//
// Each processor solves its batch of right-hand sides for one Sternheimer
// coefficient matrix by probing block sizes in powers of two: as long as
// doubling the block size at most doubles the per-chunk time (i.e. does
// not increase the per-vector time), keep doubling; otherwise halve once
// and solve the remaining systems at that size. Larger blocks buy fewer
// iterations on hard systems at the price of O(n s^2) matmult work — this
// probe finds the break-even point online, per (j, k) pair, without any
// a-priori model (paper SS III-E).
//
// The per-chunk records are what the Table IV bench histograms.
#pragma once

#include <map>
#include <vector>

#include "solver/operator.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::obs {
class EventLog;
}  // namespace rsrpa::obs

namespace rsrpa::solver {

struct ChunkRecord {
  int block_size = 0;
  int n_rhs = 0;        ///< columns actually solved (may be < block_size at the tail)
  int iterations = 0;
  long matvec_columns = 0;  ///< FP64 single-column operator applications
  long matvec_columns_f32 = 0;  ///< FP32 inner applications (mixed path)
  double seconds = 0.0;
  bool converged = false;
  bool fallback = false;  ///< recovery ladder engaged below the block solve
  // Recovery-ladder accounting (solver/resilience.hpp), per chunk.
  int restarts = 0;      ///< rung-1 residual-replacement restarts
  int deflations = 0;    ///< rung-2 block halvings
  int solver_swaps = 0;  ///< rung-3 columns handed to GMRES
  int quarantined = 0;   ///< rung-4 columns given up on

  /// True when any rung of the recovery ladder fired. Recovered chunks
  /// report the wall time of the recovery work, not of a representative
  /// block solve, so Algorithm 4 excludes them from its timing probes.
  [[nodiscard]] bool recovered() const {
    return fallback || restarts > 0 || deflations > 0 || solver_swaps > 0 ||
           quarantined > 0;
  }
};

struct DynamicBlockReport {
  std::vector<ChunkRecord> chunks;
  long total_matvec_columns = 0;
  long total_matvec_columns_f32 = 0;
  /// Modeled operator traffic/work over all chunks: each precision's
  /// matvec columns times its DynamicBlockOptions cost model (0 when no
  /// model). The only place column counts become bytes and flops.
  double total_matvec_bytes = 0.0;
  double total_matvec_flops = 0.0;
  double total_seconds = 0.0;
  bool all_converged = true;
  // Recovery-ladder totals over all chunks.
  long total_restarts = 0;
  long total_deflations = 0;
  long total_solver_swaps = 0;
  /// Global column indices quarantined by rung 4 (empty on clean runs).
  std::vector<long> quarantined_columns;

  /// Table IV histogram: chunk count per selected block size.
  [[nodiscard]] std::map<int, int> block_size_counts() const;
};

struct DynamicBlockOptions {
  SolverOptions solver;
  /// Per-column cost of one FP64 and one FP32 operator application
  /// (shifted_apply_cost with elem_bytes 8 and 4); they turn the column
  /// counts into DynamicBlockReport::total_matvec_bytes/flops. Zero =
  /// unknown operator.
  ApplyCostModel cost;
  ApplyCostModel cost_f32;
  int max_block = 0;  ///< 0 = unlimited; paper caps at n_eig / p
  bool enabled = true;  ///< false = fixed block size fixed_block
  int fixed_block = 1;
  /// Breakdown-recovery ladder (restart -> deflate -> swap ->
  /// quarantine). resilience.enabled = false is the tests' bare block
  /// COCG reference: a breakdown propagates out of the solve.
  ResilienceOptions resilience;
  /// Optional event sink: recovery-ladder events (breakdowns, restarts,
  /// deflations, solver swaps, quarantines) are recorded here with their
  /// chunk position and size. Not owned.
  obs::EventLog* events = nullptr;
};

/// Solve A Y = B for all columns of B, choosing block sizes per
/// Algorithm 4. `y` carries initial guesses in, solutions out.
DynamicBlockReport solve_dynamic_block(const BlockOpC& a,
                                       const la::Matrix<cplx>& b,
                                       la::Matrix<cplx>& y,
                                       const DynamicBlockOptions& opts);

}  // namespace rsrpa::solver
