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
                                  int completed_points,
                                  const RpaOptions& opts,
                                  const RpaResult& result,
                                  const la::Matrix<double>& v,
                                  const Rng& rng) {
  io::RunCheckpoint ck;
  ck.fingerprint = fingerprint;
  ck.completed_points = completed_points;
  ck.ell = opts.ell;
  ck.e_rpa_partial = result.e_rpa;
  ck.degraded = result.degraded;
  ck.converged = result.converged;
  ck.rng_state = rng.save_state();
  ck.per_omega = result.per_omega;
  ck.stern = result.stern;
  ck.timers = result.timers;
  ck.events = result.events;
  ck.v = v;
  if (result.ranks) {
    ck.rank_apply_seconds = result.ranks->apply_seconds;
    ck.rank_error_seconds = result.ranks->error_seconds;
  }
  return ck;
}

int restore_checkpoint(io::RunCheckpoint&& ck, const RpaOptions& opts,
                       RpaResult& result, la::Matrix<double>& v, Rng& rng) {
  // Belt and braces: the fingerprint already covers these, but a stale
  // file loaded with expected_fingerprint == 0 must still fail loudly.
  RSRPA_REQUIRE_MSG(ck.ell == opts.ell, "checkpoint ell mismatch");
  RSRPA_REQUIRE_MSG(ck.v.rows() == v.rows() && ck.v.cols() == v.cols(),
                    "checkpoint subspace shape mismatch");
  const std::size_t rank_rows = result.ranks ? opts.n_ranks : 0;
  RSRPA_REQUIRE_MSG(ck.rank_apply_seconds.size() == rank_rows &&
                        ck.rank_error_seconds.size() == rank_rows,
                    "checkpoint rank count mismatch");
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
  if (result.ranks) {
    result.ranks->apply_seconds = std::move(ck.rank_apply_seconds);
    result.ranks->error_seconds = std::move(ck.rank_error_seconds);
  }
  v = std::move(ck.v);
  rng = Rng::load_state(ck.rng_state);
  if (opts.checkpoint.events != nullptr)
    opts.checkpoint.events->emit(
        obs::events::kRunResumed, "resumed from " + opts.checkpoint.path,
        {{"completed_points", static_cast<double>(completed)},
         {"ell", static_cast<double>(ck.ell)}});
  return completed;
}

io::RunCheckpoint make_slq_checkpoint(std::uint64_t fingerprint,
                                      int completed_points,
                                      const SlqRpaOptions& opts,
                                      const SlqRpaResult& result,
                                      const Rng& rng) {
  io::RunCheckpoint ck;
  ck.slq = true;
  ck.fingerprint = fingerprint;
  ck.completed_points = completed_points;
  ck.ell = opts.ell;
  ck.e_rpa_partial = result.e_rpa;
  ck.rng_state = rng.save_state();
  ck.slq_per_omega = result.per_omega;
  ck.events = result.events;
  // The matrix stream rejects empty shapes; the SLQ driver has no
  // subspace to persist, so park a 1x1 zero in the V slot.
  ck.v = la::Matrix<double>(1, 1);
  return ck;
}

int restore_slq_checkpoint(io::RunCheckpoint&& ck, const SlqRpaOptions& opts,
                           SlqRpaResult& result, long& applies, Rng& rng) {
  RSRPA_REQUIRE_MSG(ck.slq,
                    "checkpoint was written by a Sternheimer driver; "
                    "refusing to resume the SLQ driver from it");
  // Belt and braces: the fingerprint already covers this, but a stale
  // file loaded with expected_fingerprint == 0 must still fail loudly.
  RSRPA_REQUIRE_MSG(ck.ell == opts.ell, "checkpoint ell mismatch");
  const int completed = ck.completed_points;
  result.e_rpa = ck.e_rpa_partial;
  result.per_omega = std::move(ck.slq_per_omega);
  result.events = std::move(ck.events);
  // e_terms and the matvec counter are derived views of the records;
  // rebuild them rather than persisting them twice.
  result.e_terms.clear();
  applies = 0;
  for (const SlqOmegaRecord& rec : result.per_omega) {
    result.e_terms.push_back(rec.e_term);
    applies += rec.matvec_columns;
  }
  result.matvec_columns = applies;
  rng = Rng::load_state(ck.rng_state);
  if (opts.checkpoint.events != nullptr)
    opts.checkpoint.events->emit(
        obs::events::kRunResumed, "resumed from " + opts.checkpoint.path,
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
