// Structured event log for solver telemetry.
//
// The drivers (erpa, erpa_slq) and the solver stack (dynamic block
// selection, subspace iteration) emit discrete events — block-COCG
// breakdowns that trigger the single-column fallback, Rayleigh-Ritz
// eigensolve collapses, trace-term domain violations — into an EventLog
// carried by the run's result. Each event is a kind tag, a free-form
// detail string, and a flat numeric payload, so the whole log serializes
// losslessly to JSON (obs/run_report.hpp) and survives the round trip the
// bench reports rely on.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace rsrpa::obs {

/// Well-known event kinds. Free-form kinds are allowed; these are the
/// ones the stack emits and the reproduction docs reference.
namespace events {
inline constexpr const char* kSolverBreakdown = "solver_breakdown";
inline constexpr const char* kSingleColumnFallback = "single_column_fallback";
inline constexpr const char* kEigensolveCollapse = "eigensolve_collapse";
inline constexpr const char* kTraceTermDomain = "trace_term_domain";
// Recovery-ladder events (solver/resilience.hpp), in escalation order.
inline constexpr const char* kSolverRestart = "solver_restart";
inline constexpr const char* kBlockDeflation = "block_deflation";
inline constexpr const char* kSolverSwap = "solver_swap";
inline constexpr const char* kColumnQuarantine = "column_quarantine";
// Driver-level summary: a quadrature point with quarantined columns.
inline constexpr const char* kQuadPointDegraded = "quad_point_degraded";
// Warm-start hygiene: quarantined subspace columns re-randomized before
// the next quadrature point (part of the result log — deterministic).
inline constexpr const char* kWarmStartReseed = "warm_start_reseed";
// One-time configuration warning: TOL_EIG has more entries than N_OMEGA
// and the excess is ignored (part of the result log — deterministic).
inline constexpr const char* kTolEigTruncated = "tol_eig_truncated";
// Run-checkpoint lifecycle (io/checkpoint.hpp). These go to the SEPARATE
// CheckpointOptions::events sink, never into RpaResult::events: the
// result log is covered by the bitwise resume-equivalence contract,
// while these describe one process's I/O, not the computation.
inline constexpr const char* kCheckpointWritten = "checkpoint_written";
inline constexpr const char* kRunResumed = "run_resumed";
// ISDF backend lifecycle (src/isdf). Selection reports the sketch shape
// and |R_kk| decay of the pivoted QR; rank_deficient fires when the
// sketch ran out of numerical rank before `nip` points were found; the
// fit event records the ridge the normal equations needed (0 = clean
// Cholesky).
inline constexpr const char* kIsdfPointsSelected = "isdf_points_selected";
inline constexpr const char* kIsdfRankDeficient = "isdf_rank_deficient";
inline constexpr const char* kIsdfFitRegularized = "isdf_fit_regularized";
// SLQ driver: one per quadrature point with the probe-mean trace estimate
// and its sample spread.
inline constexpr const char* kSlqOmegaEstimate = "slq_omega_estimate";
// Static subspace approximation (rpa/ssa.hpp). basis_frozen fires once,
// at the first frozen quadrature point; point_elided / fallback report
// each remaining point's elide-or-solve decision with its projection
// residual. All three live in the result log — deterministic, part of
// the bitwise resume-equivalence contract.
inline constexpr const char* kSsaBasisFrozen = "ssa_basis_frozen";
inline constexpr const char* kSsaPointElided = "ssa_point_elided";
inline constexpr const char* kSsaFallback = "ssa_fallback";
// Mixed-precision contract (common/precision.hpp). precision_clamped
// fires once per run when the requested tolerance is below what the FP32
// inner solver can achieve (the inner tolerance is clamped at
// sqrt(eps_f32); FP64 residual replacement carries the remainder). It
// lives in the result log — deterministic.
inline constexpr const char* kPrecisionClamped = "precision_clamped";
}  // namespace events

struct Event {
  std::string kind;
  std::string detail;
  /// Flat numeric payload, e.g. {{"omega_index", 3}, {"mu", 1.02}}.
  std::vector<std::pair<std::string, double>> fields;
};

class EventLog {
 public:
  void emit(Event e) { events_.push_back(std::move(e)); }
  void emit(std::string kind, std::string detail,
            std::vector<std::pair<std::string, double>> fields = {}) {
    events_.push_back(
        Event{std::move(kind), std::move(detail), std::move(fields)});
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  /// Number of events of the given kind.
  [[nodiscard]] std::size_t count(const std::string& kind) const;

  void merge(const EventLog& other);
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

Json to_json(const Event& e);
Json to_json(const EventLog& log);

/// Rebuild an EventLog from its to_json() form (round-trip inverse).
EventLog event_log_from_json(const Json& j);

}  // namespace rsrpa::obs
