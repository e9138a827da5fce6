// RunReport — the machine-readable counterpart of the free-form driver
// logs, and the JSON serializers for every telemetry struct in the stack.
//
// One RunReport corresponds to one run (a bench invocation, an RPA
// computation, a parallel sweep). The schema is documented in
// docs/REPRODUCING.md ("Run reports"); its stability contract is the
// `schema` tag below — bump it when a field changes meaning, never reuse
// a name for a different quantity. The tier-1 perf trajectory diffs these
// files across revisions, so keep fields append-only.
#pragma once

#include "isdf/erpa_isdf.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "rpa/erpa.hpp"
#include "sched/pool_stats.hpp"
#include "solver/dynamic_block.hpp"

namespace rsrpa::obs {

inline constexpr const char* kRunReportSchema = "rsrpa.run_report/1";

/// {bucket: seconds, ...} in sorted bucket order.
Json to_json(const KernelTimers& timers);

/// Scheduler telemetry: threads, tasks, steals, per-worker busy seconds.
Json to_json(const sched::PoolStats& stats);

Json to_json(const solver::SolveReport& rep);
Json to_json(const solver::ChunkRecord& rec);
/// Chunks, totals, and the Table IV block-size histogram.
Json to_json(const solver::DynamicBlockReport& rep);

Json to_json(const rpa::SternheimerStats& stats);
/// One quadrature point; SLQ probe statistics, when present, as flat
/// keys (n_probes, lanczos_steps, probe_stddev, ci_halfwidth, rel_ci,
/// matvec_columns).
Json to_json(const rpa::OmegaRecord& rec);
/// The run record of every backend: energy, per-omega rows, kernel
/// timers and the event log, plus the backend's extras — Sternheimer
/// stats, the dense backends' diagonalization_seconds, direct's e_terms,
/// SLQ's total matvec_columns and, when `isdf` is given, the ISDF
/// compression diagnostics (nip, n_eig, fit_ridge, r_decay, points).
Json to_json(const rpa::RpaResult& res,
             const isdf::Compression* isdf = nullptr);

/// Lossless inverses of the serializers above, used by the run-checkpoint
/// layer (io/checkpoint.hpp) to rebuild driver state. Doubles survive the
/// round trip bitwise (dump() emits the shortest representation that
/// from_chars parses back exactly); derived fields such as
/// arithmetic_intensity are recomputed, never parsed.
KernelTimers kernel_timers_from_json(const Json& j);
rpa::SternheimerStats sternheimer_stats_from_json(const Json& j);
rpa::OmegaRecord omega_record_from_json(const Json& j);

class RunReport {
 public:
  /// `name` identifies the run (e.g. the bench binary name); it becomes
  /// the `name` field and the default file stem.
  explicit RunReport(std::string name);

  [[nodiscard]] const std::string& name() const { return name_; }
  Json& root() { return root_; }
  [[nodiscard]] const Json& root() const { return root_; }

  /// Set a top-level field.
  void set(const std::string& key, Json value) {
    root_[key] = std::move(value);
  }

  [[nodiscard]] std::string dump() const { return root_.dump(2); }
  /// Write to `path` (parent directories created). Pretty-printed.
  void write(const std::string& path) const { write_json_file(path, root_); }

 private:
  std::string name_;
  Json root_;
};

}  // namespace rsrpa::obs
