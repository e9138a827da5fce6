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

#include "direct/direct_rpa.hpp"
#include "isdf/erpa_isdf.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "rpa/erpa.hpp"
#include "rpa/erpa_slq.hpp"
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
Json to_json(const rpa::OmegaRecord& rec);
/// The full per-run record: energy, per-omega rows, Sternheimer stats,
/// kernel timers, and the event log.
Json to_json(const rpa::RpaResult& res);

/// Lossless inverses of the serializers above, used by the run-checkpoint
/// layer (io/checkpoint.hpp) to rebuild driver state. Doubles survive the
/// round trip bitwise (dump() emits the shortest representation that
/// from_chars parses back exactly); derived fields such as
/// arithmetic_intensity are recomputed, never parsed.
KernelTimers kernel_timers_from_json(const Json& j);
rpa::SternheimerStats sternheimer_stats_from_json(const Json& j);
rpa::OmegaRecord omega_record_from_json(const Json& j);
rpa::SlqOmegaRecord slq_omega_record_from_json(const Json& j);

// The other three backends' run records share the RpaResult field names
// (e_rpa, e_rpa_per_atom, converged, total_seconds, per_omega, timers,
// events) so obs tooling written against the Sternheimer report reads
// them unchanged; backend-specific extras are additive.
Json to_json(const direct::DirectRpaResult& res);
Json to_json(const rpa::SlqOmegaRecord& rec);
Json to_json(const rpa::SlqRpaResult& res);
Json to_json(const isdf::IsdfRpaResult& res);

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
