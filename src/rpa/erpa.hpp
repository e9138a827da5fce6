// The top-level RPA correlation energy driver — Algorithms 1 and 6.
//
// Steps through the descending frequency grid of Table II, runs the
// filtered subspace iteration at each point (warm-starting from the
// previous point's eigenvectors), and accumulates
//
//   E_RPA = sum_k w_k / (2 pi) * sum_a [ ln(1 - mu_a) + mu_a ]
//
// over the n_eig most negative eigenvalues mu_a of nu chi0(i omega_k).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "obs/event_log.hpp"
#include "rpa/quadrature.hpp"
#include "rpa/subspace.hpp"

namespace rsrpa::rpa {

/// Thrown by the drivers when CheckpointOptions::halt_after_point fires:
/// the kill-and-resume tests' stand-in for a crash immediately after a
/// checkpoint reaches disk.
struct RunHalted : Error {
  using Error::Error;
};

/// Thrown at a quadrature-point boundary when RunControl::request_cancel
/// was seen. Everything up to and including the last completed point is
/// already checkpointed (when checkpointing is on), so the run is
/// resumable; rpacalc maps this to its distinct "interrupted" exit code.
struct RunCancelled : Error {
  using Error::Error;
};

/// Thrown at a quadrature-point boundary when RunControl::request_preempt
/// was seen: the suspend half of checkpoint-based preemption. The job
/// service resumes the run later from its per-point checkpoint; resumed
/// runs are bitwise identical to uninterrupted ones (PR 5 contract).
struct RunPreempted : Error {
  using Error::Error;
};

/// Cooperative run control, polled by both drivers at quadrature-point
/// boundaries — the only places the run state is a small consistent cut
/// (and where a checkpoint has just been written). Requests are sticky
/// until reset; a cancel is never downgraded to a preempt. request_cancel
/// is async-signal-safe (one lock-free atomic store), so rpacalc calls it
/// straight from its SIGINT/SIGTERM handler.
class RunControl {
 public:
  enum Request : int { kNone = 0, kPreempt = 1, kCancel = 2 };

  void request_cancel() {
    request_.store(kCancel, std::memory_order_release);
  }
  /// No-op when a cancel is already pending (cancel outranks preempt).
  void request_preempt() {
    int expected = kNone;
    request_.compare_exchange_strong(expected, kPreempt,
                                     std::memory_order_acq_rel);
  }
  [[nodiscard]] Request pending() const {
    return static_cast<Request>(request_.load(std::memory_order_acquire));
  }
  void reset() { request_.store(kNone, std::memory_order_release); }

 private:
  static_assert(std::atomic<int>::is_always_lock_free,
                "RunControl must stay signal-safe");
  std::atomic<int> request_{kNone};
};

/// The drivers' boundary poll: throw the matching control exception, or
/// return immediately when `control` is null / nothing is pending. Called
/// at the top of each quadrature-point iteration, so the previous point's
/// checkpoint (when enabled) is already on disk when this fires.
inline void check_run_control(const RunControl* control) {
  if (control == nullptr) return;
  switch (control->pending()) {
    case RunControl::kCancel:
      throw RunCancelled("run cancelled at quadrature-point boundary");
    case RunControl::kPreempt:
      throw RunPreempted("run preempted at quadrature-point boundary");
    case RunControl::kNone:
      break;
  }
}

/// Run-granularity crash recovery (io/checkpoint.hpp). With `path` set,
/// the drivers persist a versioned RunCheckpoint after every quadrature
/// point — warm-start subspace, partial E_RPA sum, completed per-omega
/// records, RNG state, config fingerprint — and, with `resume`, pick the
/// run back up from that file instead of starting over. Writes are
/// atomic (io::atomic_write), so a crash can never leave a torn
/// checkpoint behind.
struct CheckpointOptions {
  std::string path;     ///< empty = checkpointing disabled
  /// Load `path` before the first point when it exists; a missing file
  /// starts a fresh run (so `resume` can be passed unconditionally). A
  /// checkpoint whose fingerprint does not match this system + options
  /// is refused with an Error.
  bool resume = false;
  /// Lifecycle sink for checkpoint_written / run_resumed events. Kept
  /// SEPARATE from RpaResult::events on purpose: the result log is part
  /// of the bitwise resume-equivalence contract, while these events
  /// describe one process's I/O, not the computation. Not owned.
  obs::EventLog* events = nullptr;
  /// Test hook: throw RunHalted right after the checkpoint for this
  /// quadrature-point index is written (simulated crash). -1 = off.
  int halt_after_point = -1;
};

/// Static subspace approximation with quadrature-point elision (Weinberg
/// et al., arXiv:2405.20258). Fig. 2 shows the eigenspace of
/// nu^{1/2} chi0(i omega) nu^{1/2} varies slowly with omega; after
/// `freeze_after` fully-solved quadrature points the drivers freeze the
/// warm-start basis and evaluate each remaining omega by Rayleigh-Ritz
/// projection onto it — one fused operator apply plus a small dense
/// eigensolve instead of a full filtered subspace iteration. Every elided
/// point is guarded a posteriori: when the Eq. (7)-style projection
/// residual exceeds `residual_tol` the point falls back to a full solve,
/// so accuracy is never silently lost.
struct SsaOptions {
  /// Quadrature points solved in full before the basis freezes
  /// (SSA_FREEZE_AFTER). 0 disables elision — the default; >= ell means
  /// the basis never freezes.
  int freeze_after = 0;
  /// A-posteriori bound on the projection residual (same Eq. (7) scale as
  /// tol_eig) above which an elision candidate falls back to a full solve
  /// (SSA_RESIDUAL_TOL).
  double residual_tol = 5e-3;
  /// After a fallback solve, adopt the freshly converged eigenvectors as
  /// the new frozen basis (SSA_REFRESH). Off, the original basis stays
  /// frozen and the fallback's subspace evolution is discarded.
  bool refresh = true;
};

/// True when quadrature point `k` is an elision candidate: the basis is
/// frozen once `freeze_after` (> 0) points have been fully solved. A pure
/// function of (options, k) — the freeze carries no hidden state, which
/// is what keeps checkpointed elision runs bitwise resumable.
inline bool ssa_frozen(const SsaOptions& ssa, int k) {
  return ssa.freeze_after > 0 && k >= ssa.freeze_after;
}

struct RpaOptions {
  std::size_t n_eig = 0;  ///< N_NUCHI_EIGS; required
  /// Simulated processor count of the SS III-D column partition, in
  /// [1, n_eig]. 1 applies the operator to the whole block. p > 1 splits
  /// every application into p contiguous column slices run as concurrent
  /// tasks, caps the Sternheimer block size at n_eig / p, and records
  /// per-rank seconds in RpaResult::ranks. The rest of the sweep is the
  /// same code at every p.
  std::size_t n_ranks = 1;
  int ell = 8;            ///< N_OMEGA
  /// Per-quadrature-point subspace tolerances (TOL_EIG). Padded with the
  /// last entry if shorter than ell.
  std::vector<double> tol_eig = {4e-3, 2e-3, 5e-4, 5e-4,
                                 5e-4, 5e-4, 5e-4, 5e-4};
  int max_filter_iter = 10;  ///< MAXIT_FILTERING
  int cheb_degree = 2;       ///< CHEB_DEGREE_RPA
  SternheimerOptions stern;  ///< TOL_STERN_RES etc.
  bool warm_start = true;    ///< reuse eigenvectors across omega (SS III-F)
  std::uint64_t seed = 0x5ca1ab1e;
  /// When stern.fault.mode != kNone, restrict the injection to this
  /// quadrature-point index; -1 injects at every point. Lets the fault
  /// suite poison exactly one omega and check the rest stay clean.
  int fault_omega = -1;
  /// Static subspace approximation (quadrature-point elision). Part of
  /// the computation — included in the config fingerprint, unlike the
  /// checkpoint policy below.
  SsaOptions ssa;
  /// Crash-safe checkpoint/restart of the quadrature sweep. Excluded
  /// from the config fingerprint: where a run checkpoints (and whether
  /// it resumes) is process policy, not part of the computation.
  CheckpointOptions checkpoint;
  /// Cooperative cancel/preempt, polled at the top of every quadrature
  /// point (after the previous point's checkpoint hit disk). Like
  /// `checkpoint`, process policy — excluded from the fingerprint. Not
  /// owned; may be shared with a signal handler or the job service.
  RunControl* control = nullptr;
};

/// Names of the four E_RPA drivers: the `method` of an RpaResult, of a
/// run report and of a run checkpoint.
namespace methods {
inline constexpr const char* kSternheimer = "sternheimer";
inline constexpr const char* kDirect = "direct";
inline constexpr const char* kIsdf = "isdf";
inline constexpr const char* kSlq = "slq";
}  // namespace methods

/// Probe statistics of a stochastic (SLQ) trace estimate at one quadrature
/// point: the estimate's error bar is the probe-sample spread.
struct ProbeStats {
  int n_probes = 0;
  int lanczos_steps = 0;
  /// Unbiased standard deviation of the per-probe estimates; the standard
  /// error of e_term is probe_stddev / sqrt(n_probes). 0 when n_probes=1.
  double probe_stddev = 0.0;
  /// 95% confidence half-width of e_term: 1.96 * probe_stddev /
  /// sqrt(n_probes). 0 when n_probes=1.
  double ci_halfwidth = 0.0;
  /// ci_halfwidth / |e_term| — what SLQ_TARGET_REL_CI is compared
  /// against. 0 when e_term is exactly zero.
  double rel_ci = 0.0;
  long matvec_columns = 0;  ///< single-vector operator applies spent
};

/// One quadrature point of any of the four drivers. The subspace fields
/// (filter_iterations, error, the elision and quarantine telemetry) stay
/// at their defaults for the dense backends; `probes` is set only by SLQ.
struct OmegaRecord {
  double omega = 0.0;
  double weight = 0.0;
  double e_term = 0.0;       ///< Tr approximation at this omega
  int filter_iterations = 0; ///< ncheb
  double error = 0.0;        ///< Eq. (7) at exit
  bool converged = false;
  double seconds = 0.0;
  /// Eigenvalues with mu >= 1 (trace term undefined): how many were
  /// skipped from e_term, and the worst offender. Such a point is marked
  /// non-converged but the run continues (see accumulate_trace_terms).
  int invalid_terms = 0;
  double worst_mu = 0.0;
  /// Sternheimer columns quarantined by the recovery ladder while working
  /// on this point. > 0 marks the point degraded: its e_term was computed
  /// from solves where the quarantined columns still hold their initial
  /// guesses, so the point is non-converged but the run completes.
  long quarantined_columns = 0;
  /// The distinct subspace (V) column indices behind that count, sorted.
  /// These are the columns the warm-start chain re-randomizes before the
  /// next quadrature point so one poisoned omega cannot contaminate the
  /// points downstream of it.
  std::vector<long> quarantined_column_indices;
  /// Sternheimer operator traffic/work attributable to this quadrature
  /// point (delta of the run totals), exposing achieved arithmetic
  /// intensity per point: matvec_flops / matvec_bytes.
  double matvec_bytes = 0.0;
  double matvec_flops = 0.0;
  /// Static-subspace elision telemetry (opts.ssa). `elided` marks a point
  /// evaluated by projection onto the frozen basis alone;
  /// `projection_residual` is the Eq. (7)-style a-posteriori bound that
  /// admitted (or rejected) the elision; `fallback` marks a frozen-phase
  /// point whose residual exceeded SSA_RESIDUAL_TOL and was re-solved in
  /// full. All three stay at their defaults when elision is disabled.
  bool elided = false;
  double projection_residual = 0.0;
  bool fallback = false;
  /// The eigenvalues of nu chi0 entering the trace (ascending): converged
  /// Ritz values, or the dense spectrum (truncated to the kept count).
  /// Empty for SLQ, which never forms them.
  std::vector<double> eigenvalues;
  /// SLQ only: e_term is the probe mean, and these are its statistics.
  std::optional<ProbeStats> probes;
};

/// Measured per-rank seconds of a column-partitioned run (n_ranks > 1):
/// rank r's share of the filter, Rayleigh-Ritz and SSA applications, and
/// of the Eq. (7) convergence-check applications. The panel shape feeds
/// the collective model (par/kernel_breakdown.hpp).
struct RankSeconds {
  std::size_t panel_rows = 0;  ///< n_d
  std::size_t panel_cols = 0;  ///< n_eig
  std::vector<double> apply_seconds;
  std::vector<double> error_seconds;
};

/// The run record of every E_RPA driver (compute_rpa_energy,
/// compute_rpa_energy_slq, direct::compute_direct_rpa,
/// isdf::compute_rpa_energy_isdf); obs::to_json serializes it.
struct RpaResult {
  std::string method = methods::kSternheimer;  ///< the driver that ran
  double e_rpa = 0.0;           ///< total correlation energy (Ha)
  double e_rpa_per_atom = 0.0;  ///< e_rpa / n_atoms, filled by the driver
                                ///< (all four backends populate it)
  bool converged = true;        ///< all quadrature points converged
  /// Any quadrature point had quarantined Sternheimer columns; E_RPA is
  /// finite but carries the degraded points' approximation error.
  bool degraded = false;
  std::vector<OmegaRecord> per_omega;
  /// Fig. 5 kernel breakdown; the dense backends also charge their
  /// one-time diagonalization here (kernels::kDiagonalize).
  KernelTimers timers;
  SternheimerStats stern;       ///< Table IV statistics (Sternheimer only)
  obs::EventLog events;         ///< fallbacks, collapses, domain violations
  double total_seconds = 0.0;
  /// Present only when the run used n_ranks > 1.
  std::optional<RankSeconds> ranks;
};

/// Compute E_RPA for the given Kohn-Sham system. `klap` must discretize
/// the same grid with the same stencil radius as the system Hamiltonian.
/// Throws Error unless 1 <= n_ranks <= n_eig.
RpaResult compute_rpa_energy(const dft::KsSystem& sys,
                             const poisson::KroneckerLaplacian& klap,
                             const RpaOptions& opts);

/// The scalar trace model applied to each eigenvalue: ln(1 - mu) + mu.
/// Defined for mu < 1; returns quiet NaN for mu >= 1 (the caller decides
/// how to continue — the drivers skip the term and flag the point rather
/// than abort a multi-hour run).
double rpa_trace_term(double mu);

/// Sum rpa_trace_term over `eigenvalues`, recording telemetry into `rec`:
/// eigenvalues with mu >= 1 are skipped (not silently folded into the
/// energy), counted in rec.invalid_terms with the worst mu kept, the
/// record is marked non-converged, and a trace_term_domain event carrying
/// (omega_index, mu) is emitted into `events` when provided. Returns the
/// sum over the valid eigenvalues, which is also written to rec.e_term.
double accumulate_trace_terms(const std::vector<double>& eigenvalues,
                              int omega_index, OmegaRecord& rec,
                              obs::EventLog* events);

/// Close quadrature point `k`, the one step every driver ends a point
/// with: unless `rec` carries probe statistics (an SLQ estimate, whose
/// e_term is already the probe mean), sum the trace terms of
/// rec.eigenvalues into rec.e_term (accumulate_trace_terms, events into
/// result.events); then add w_k / (2 pi) * e_term to result.e_rpa, fold
/// rec.converged into result.converged and append `rec` to per_omega.
void close_point(RpaResult& result, OmegaRecord rec, int k);

/// Resolve TOL_EIG for quadrature point `k`: an empty vector falls back
/// to 5e-4, a vector shorter than ell is padded with its last entry, and
/// entries beyond ell are ignored — with a one-time tol_eig_truncated
/// warning emitted into `events` the first call that sees the excess.
/// `warned` (one bool per run, owned by the driver loop) suppresses
/// repeats; resumed runs start it true because the restored event log
/// already carries the point-0 warning.
double tol_for_point(const RpaOptions& opts, int k,
                     obs::EventLog* events = nullptr, bool* warned = nullptr);

}  // namespace rsrpa::rpa
