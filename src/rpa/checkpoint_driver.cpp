#include "rpa/checkpoint_driver.hpp"

#include <set>
#include <string>
#include <utility>

namespace rsrpa::rpa::detail {

std::vector<long> quarantined_columns_since(const SternheimerStats& stern,
                                            std::size_t idx_before) {
  const std::vector<long>& all = stern.quarantined_column_indices;
  if (idx_before >= all.size()) return {};
  const std::set<long> uniq(all.begin() + static_cast<std::ptrdiff_t>(idx_before),
                            all.end());
  return {uniq.begin(), uniq.end()};
}

void reseed_quarantined_columns(la::Matrix<double>& v,
                                const std::vector<long>& cols,
                                const Rng& rng, int omega_index,
                                obs::EventLog& events) {
  if (cols.empty()) return;
  for (long c : cols) {
    if (c < 0 || static_cast<std::size_t>(c) >= v.cols()) continue;
    // Stream id keyed on (point, column) only: the refill is identical
    // whether the run got here straight through or via a resume, and at
    // any thread count. omega_index + 1 keeps point 0 distinct from the
    // plain column streams used elsewhere.
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(omega_index) + 1) << 32 |
        static_cast<std::uint64_t>(c);
    rng.derive(stream).fill_uniform(v.col(static_cast<std::size_t>(c)));
  }
  events.emit(obs::events::kWarmStartReseed,
              "re-randomized quarantined warm-start columns before the "
              "next quadrature point",
              {{"omega_index", static_cast<double>(omega_index)},
               {"columns", static_cast<double>(cols.size())}});
}

io::RunCheckpoint make_checkpoint(std::uint64_t fingerprint,
                                  int completed_points, int ell,
                                  const RpaResult& result,
                                  const la::Matrix<double>& v,
                                  const Rng& rng) {
  io::RunCheckpoint ck;
  ck.fingerprint = fingerprint;
  ck.method = result.method;
  ck.completed_points = completed_points;
  ck.ell = ell;
  ck.e_rpa_partial = result.e_rpa;
  ck.degraded = result.degraded;
  ck.converged = result.converged;
  ck.rng_state = rng.save_state();
  ck.per_omega = result.per_omega;
  ck.stern = result.stern;
  ck.timers = result.timers;
  ck.events = result.events;
  ck.v = v;
  return ck;
}

int restore_checkpoint(const CheckpointOptions& copts,
                       std::uint64_t fingerprint, int ell, RpaResult& result,
                       la::Matrix<double>& v, Rng& rng) {
  // The fingerprint is checked after the method, so resuming another
  // method's file names both methods instead of a bare hash mismatch.
  io::RunCheckpoint ck = io::load_run_checkpoint(copts.path);
  RSRPA_REQUIRE_MSG(ck.method == result.method,
                    "checkpoint " + copts.path + " was written by the " +
                        ck.method + " driver; refusing to resume the " +
                        result.method + " driver from it");
  io::check_fingerprint(ck, fingerprint, copts.path);
  // Belt and braces: the fingerprint already covers these.
  RSRPA_REQUIRE_MSG(ck.ell == ell, "checkpoint ell mismatch");
  RSRPA_REQUIRE_MSG(ck.v.rows() == v.rows() && ck.v.cols() == v.cols(),
                    "checkpoint subspace shape mismatch");
  const int completed = ck.completed_points;
  // Assign into the existing objects: the caller has already handed out
  // pointers to result.events (the solver telemetry sink), so the
  // containers must keep their addresses.
  result.e_rpa = ck.e_rpa_partial;
  result.converged = ck.converged;
  result.degraded = ck.degraded;
  result.per_omega = std::move(ck.per_omega);
  result.stern = std::move(ck.stern);
  result.timers = std::move(ck.timers);
  result.events = std::move(ck.events);
  v = std::move(ck.v);
  rng = Rng::load_state(ck.rng_state);
  if (copts.events != nullptr)
    copts.events->emit(
        obs::events::kRunResumed, "resumed from " + copts.path,
        {{"completed_points", static_cast<double>(completed)},
         {"ell", static_cast<double>(ck.ell)}});
  return completed;
}

void after_checkpoint_write(const CheckpointOptions& copts, int k) {
  if (copts.events != nullptr)
    copts.events->emit(obs::events::kCheckpointWritten,
                       "run checkpoint persisted to " + copts.path,
                       {{"omega_index", static_cast<double>(k)},
                        {"completed_points", static_cast<double>(k + 1)}});
  if (copts.halt_after_point == k)
    throw RunHalted("halt_after_point: simulated crash after checkpointing "
                    "quadrature point " +
                    std::to_string(k));
}

}  // namespace rsrpa::rpa::detail
