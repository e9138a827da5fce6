// Matrix-free application of the irreducible polarizability chi0(i omega).
//
// The two-step procedure of paper Eqs. (4)-(5) in block form (Eq. 6):
// for each occupied orbital j, solve the block Sternheimer system
//
//   (H - lambda_j I + i omega I) Y_j = -(V . Psi_j)     (Hadamard RHS)
//
// with block COCG under dynamic block-size selection (Algorithms 3+4) and
// the Galerkin initial guess (Eq. 13), then accumulate
//
//   chi0 V = (4 / dv) Re sum_j Psi_j . Y_j.
//
// The 1/dv converts the grid-orthonormal orbital convention into the
// continuum polarizability operator, so the spectrum of nu chi0 is the
// physical (dimensionless) one of paper Fig. 1.
//
// Concurrency. The n_occ solves are independent, so one apply runs them
// on the sched pool in waves of L = min(pool lanes, current task quota,
// n_occ) tasks. Each task owns a slot (its B_j, Y_j and real RHS buffers,
// its solver report and event log); the L slots are allocated once per
// apply and reused by every wave. After each join the slots merge in
// ascending j: statistics and events first, then the Eq. (6) term
// out += (4/dv) psi_j Re Y_j with the serial expression.
// Every orbital does the same floating-point work as in a serial loop and
// the sum keeps its serial order, so with a pinned block size
// (dynamic_block = false) the output, the non-timing statistics and the
// event stream are bitwise the same at any lane count or quota. A solve
// that throws (a breakdown reaches here only with the recovery ladder
// disabled, SternheimerOptions::resilience) is rethrown at its merge,
// after the orbitals before it and its own events: the caller sees the
// serial loop's partial state. At one lane (or a quota of 1) the loop
// runs inline and forks nothing. Memory grows with L: three n x s
// buffers plus one solver workspace per slot.
//
// Operator work. The solvers count applied columns (FP64, and FP32 on
// the mixed path); solve_dynamic_block turns the counts into modeled
// bytes and flops with the two shifted_apply_cost models this apply hands
// it. They reach SternheimerStats::matvec_{columns,bytes,flops} and the
// per-omega records; no per-apply event is emitted.
#pragma once

#include <map>
#include <optional>

#include "common/precision.hpp"
#include "common/timer.hpp"
#include "dft/ks_system.hpp"
#include "solver/dynamic_block.hpp"

namespace rsrpa::rpa {

struct SternheimerOptions {
  double tol = 1e-2;          ///< TOL_STERN_RES of the artifact input
  int max_iter = 1000;
  bool dynamic_block = true;  ///< Algorithm 4 on/off (ablation A3/Table IV)
  int fixed_block = 1;        ///< used when dynamic_block is false
  int max_block = 0;          ///< n_eig / p cap; 0 = unlimited
  bool galerkin_guess = true; ///< Eq. (13) on/off (ablation A3)
  /// Breakdown-recovery ladder for every block solve
  /// (solver/resilience.hpp): restart -> deflate -> swap -> quarantine.
  /// No input key sets it; enabled = false is the tests' bare block COCG
  /// reference.
  solver::ResilienceOptions resilience;
  /// Deterministic fault injection into the Sternheimer operator (tests /
  /// chaos drills). mode = kNone leaves the operator unwrapped; otherwise
  /// a FaultInjectingOp is installed per occupied orbital, seeded from
  /// fault.seed and the orbital index so results are bitwise reproducible
  /// at any thread count.
  solver::FaultInjectionOptions fault;
  /// Optional telemetry sink threaded down to the dynamic-block solver;
  /// the RPA drivers point it at their result's event log. Not owned.
  obs::EventLog* events = nullptr;
  /// Precision policy for the Sternheimer solves. kMixed runs the Krylov
  /// recurrences in FP32 through the operator's FP32 fused sweep, with
  /// FP64 residual replacement on the restart boundary the resilience
  /// ladder owns (solver/mixed.hpp). Contract is bitwise-or-tolerance:
  /// kFp64 results are bitwise reproducible; kMixed agrees with kFp64 to
  /// the driver tolerance (<= 1e-4 Ha/atom at the correlation energy).
  common::Precision precision = common::Precision::kFp64;
};

/// Accumulated statistics over Sternheimer solves (feeds Table IV and the
/// load-balance analysis of Figs. 4/5).
struct SternheimerStats {
  std::map<int, int> block_size_chunks;  ///< Table IV histogram
  long total_chunks = 0;
  long matvec_columns = 0;      ///< FP64 single-vector applications
  long matvec_columns_f32 = 0;  ///< FP32 inner-iteration applications (mixed)
  /// Modeled operator traffic/work over all solves (matvec columns times
  /// shifted_apply_cost, per precision, summed by solve_dynamic_block),
  /// so run reports expose achieved arithmetic intensity per quadrature
  /// point: matvec_flops / matvec_bytes.
  double matvec_bytes = 0.0;
  double matvec_flops = 0.0;
  /// Solver time summed over the orbital solves. They run concurrently,
  /// so this is thread-seconds, not the wall time of the applies.
  double seconds = 0.0;
  bool all_converged = true;
  // Recovery-ladder totals (solver/resilience.hpp).
  long restarts = 0;
  long deflations = 0;
  long solver_swaps = 0;
  long quarantined_columns = 0;
  /// Column indices (in the frame of the block handed to the operator —
  /// i.e. positions in the driver's subspace V) that rung 4 gave up on,
  /// in quarantine order. Indices can repeat when the same column fails
  /// for several occupied orbitals or applies; consumers deduplicate.
  /// The warm-start chain uses the per-point delta of this list to
  /// re-randomize poisoned columns before the next quadrature point.
  std::vector<long> quarantined_column_indices;

  void merge(const solver::DynamicBlockReport& rep);
  /// Merge another stats object; `col0` shifts its quarantined column
  /// indices into this object's column frame (the slice offset when a
  /// column-sliced apply hook merges its slices' stats).
  void merge(const SternheimerStats& other, long col0 = 0);
};

class Chi0Applier {
 public:
  Chi0Applier(const dft::KsSystem& sys, SternheimerOptions opts);

  /// out = chi0(i omega) * v for a block of real vectors, the occupied
  /// orbitals solved concurrently (see the header comment). `stats`
  /// (optional) accumulates solver statistics. `events` (optional)
  /// overrides the options-level event sink for this call — concurrent
  /// callers (the slice tasks of a column-sliced apply hook, see
  /// RpaOptions::apply_hook) pass per-task logs here
  /// because EventLog itself is single-owner. The sink receives only the
  /// solvers' recovery-ladder events; operator work lands in `stats` as
  /// matvec_{columns,bytes,flops}, bytes and flops modeled as columns x
  /// shifted_apply_cost (no per-apply event exists).
  void apply(const la::Matrix<double>& v, la::Matrix<double>& out,
             double omega, SternheimerStats* stats = nullptr,
             obs::EventLog* events = nullptr) const;

  [[nodiscard]] const dft::KsSystem& system() const { return sys_; }
  [[nodiscard]] const SternheimerOptions& options() const { return opts_; }
  SternheimerOptions& options() { return opts_; }

 private:
  const dft::KsSystem& sys_;
  SternheimerOptions opts_;
};

}  // namespace rsrpa::rpa
