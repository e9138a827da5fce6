// Breakdown-recovery ladder and deterministic fault injection for the
// Sternheimer solver stack.
//
// Block Krylov methods are breakdown-prone by construction (the deflation
// caveat of paper SS II): a rank-deficient residual block or a vanishing
// conjugacy matrix throws NumericalBreakdown out of block COCG. At scale
// a single ill-conditioned chunk must degrade a run, not kill it, so
// resilient_block_solve escalates through a fixed ladder:
//
//   rung 1  residual-replacement restart — re-enter block COCG once from
//           the current iterate (or from the entry guess if the iterate
//           was poisoned by non-finite values). Recovers transient faults
//           and breakdowns where real progress was made before the stall.
//   rung 2  block-size halving deflation — split the block in two and
//           recurse, down to single columns. Recovers linearly dependent
//           right-hand sides (the classic block-method failure).
//   rung 3  solver swap — hand a surviving single column to GMRES;
//           accepted only if converged and finite. GMRES uses Hermitian
//           inner products, so it survives the quasi-null vectors
//           (w^T w = 0 with w != 0) that break every bilinear-form method.
//   rung 4  quarantine — restore the entry guess for the column, record
//           its index, emit a column_quarantine event, and return
//           non-converged instead of throwing. The drivers surface the
//           affected quadrature points in the RunReport.
//
// Every rung emits structured obs events (solver_breakdown,
// solver_restart, block_deflation, solver_swap, column_quarantine), and
// the aggregate report's matvec_columns counts every operator column
// applied, including failed attempts — accounting survives the unwind.
//
// FaultInjectingOp wraps any BlockOpC with deterministic, config-driven
// fault injection (NaN matvec, perturbed matvec, zeroed matvec) so every
// rung is exercisable under ctest. Faults are seeded via Rng::derive on
// the apply index, never on thread identity, so injected runs are bitwise
// reproducible at any RSRPA_THREADS.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "solver/operator.hpp"

namespace rsrpa::obs {
class EventLog;
}  // namespace rsrpa::obs

namespace rsrpa::solver {

/// What an injected fault does to the wrapped operator's output.
enum class FaultMode {
  kNone = 0,      ///< injection disabled (the wrapper is never installed)
  kNanMatvec,     ///< poison out(0, 0) with a quiet NaN
  kPerturbMatvec, ///< add a seeded uniform perturbation to every entry
  kZeroMatvec,    ///< zero the output block (forces a conjugacy breakdown)
};

/// Parse "none" / "nan" / "perturb" / "zero" (config spelling).
FaultMode fault_mode_from_string(const std::string& s);

struct FaultInjectionOptions {
  FaultMode mode = FaultMode::kNone;
  long at_apply = 1;    ///< 0-based block-apply index of the first fault
  long period = 0;      ///< 0 = fire once at at_apply; else refire every period
  int max_faults = 1;   ///< total fault budget for this wrapper instance
  double magnitude = 1e-2;  ///< perturbation scale (kPerturbMatvec)
  int orbital = -1;     ///< chi0 only: restrict to occupied orbital j; -1 = all
  int omega = -1;       ///< RPA drivers only: restrict to quadrature point k
                        ///< (FaultModeScope); -1 = all
  std::uint64_t seed = 0xfa171788cULL;  ///< Rng::derive base for perturbations
};

/// Deterministic fault-injecting wrapper around a BlockOpC. Copyable with
/// shared counters (std::function copies its target), so the apply index
/// advances no matter which copy is invoked. One instance is created per
/// Sternheimer solve (per occupied orbital), so the counter — and hence
/// the fault placement — is independent of the thread schedule.
class FaultInjectingOp {
 public:
  FaultInjectingOp(BlockOpC inner, const FaultInjectionOptions& opts);

  void operator()(const la::Matrix<cplx>& in, la::Matrix<cplx>& out) const;

  /// Block applications seen so far (across all copies).
  [[nodiscard]] long applies() const;
  /// Faults actually injected so far (across all copies).
  [[nodiscard]] long faults_injected() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// RAII selector for per-quadrature-point fault injection. The Sternheimer
/// and SLQ drivers honor FAULT_OMEGA (FaultInjectionOptions::omega) by
/// flipping the live operator's fault mode before every point; this
/// guard owns that mutation and restores the originally requested mode
/// when it leaves scope (normally or via an exception), so the operator
/// can never be left in whatever the last point happened to select.
class FaultModeScope {
 public:
  /// Captures the mode currently in `slot` as the requested one.
  explicit FaultModeScope(FaultMode& slot) : slot_(slot), requested_(slot) {}
  ~FaultModeScope() { slot_ = requested_; }
  FaultModeScope(const FaultModeScope&) = delete;
  FaultModeScope& operator=(const FaultModeScope&) = delete;

  /// The injection mode the run configuration asked for.
  [[nodiscard]] FaultMode requested() const { return requested_; }

  /// Arm the slot for quadrature point `k`: the requested mode when the
  /// fault targets k (omega < 0 targets every point), else kNone.
  void select_for_point(int k, int omega) {
    slot_ = (omega < 0 || omega == k) ? requested_ : FaultMode::kNone;
  }

 private:
  FaultMode& slot_;
  FaultMode requested_;
};

/// Recovery-ladder policy. The ladder itself is fixed: one rung-1
/// restart per block, then deflation, solver swap and quarantine. The
/// only switch is `enabled`, and no input key reaches it: false runs bare
/// block COCG, so a breakdown propagates. Tests use that as the clean-run
/// reference and as the way to make a solve throw.
struct ResilienceOptions {
  bool enabled = true;  ///< false = plain block COCG, exceptions fly
};

/// Outcome of one ladder-protected block solve.
struct ResilientSolveResult {
  SolveReport report;   ///< aggregate: worst residual, max iterations,
                        ///< matvec_columns counts FAILED attempts too
  int restarts = 0;     ///< rung-1 activations
  int deflations = 0;   ///< rung-2 activations (one per split)
  int solver_swaps = 0; ///< rung-3 activations (one per column handed to GMRES)
  std::vector<long> quarantined;  ///< global column indices given up on
};

/// Solve A Y = B through the recovery ladder. `y` carries initial guesses
/// in, solutions out; quarantined columns come back holding their entry
/// guess. `col0` offsets the recorded column indices (callers pass the
/// chunk position so quarantine lists are global). `events` (optional)
/// receives the structured rung events. Throws NumericalBreakdown only
/// when opts.enabled is false and block COCG breaks down.
ResilientSolveResult resilient_block_solve(const BlockOpC& a,
                                           const la::Matrix<cplx>& b,
                                           la::Matrix<cplx>& y,
                                           const SolverOptions& sopts,
                                           const ResilienceOptions& opts,
                                           std::size_t col0 = 0,
                                           obs::EventLog* events = nullptr);

}  // namespace rsrpa::solver
