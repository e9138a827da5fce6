#include "rpa/sweep.hpp"

#include <cmath>
#include <filesystem>
#include <string>
#include <utility>

#include "io/checkpoint.hpp"
#include "rpa/quadrature.hpp"
#include "solver/mixed.hpp"

namespace rsrpa::rpa {

namespace {

// Close quadrature point `k`: mark it degraded when it has quarantined
// Sternheimer columns; unless `rec` carries probe statistics (an SLQ
// estimate, whose e_term is already the probe mean), sum the trace terms
// of rec.eigenvalues into rec.e_term (accumulate_trace_terms, events into
// result.events); then add w_k / (2 pi) * e_term to result.e_rpa, fold
// rec.converged into result.converged and append `rec` to per_omega.
void close_point(RpaResult& result, OmegaRecord rec, int k) {
  if (rec.quarantined_columns > 0) {
    // The point's trace was computed from solves where the quarantined
    // columns still hold their initial guesses: finite, but degraded.
    // Flag it and keep going — one bad point must not kill the
    // quadrature.
    rec.converged = false;
    result.degraded = true;
    result.events.emit(
        obs::events::kQuadPointDegraded,
        "quadrature point computed with quarantined Sternheimer columns",
        {{"omega_index", static_cast<double>(k)},
         {"quarantined_columns",
          static_cast<double>(rec.quarantined_columns)}});
  }
  if (!rec.probes)
    accumulate_trace_terms(rec.eigenvalues, k, rec, &result.events);
  result.e_rpa += rec.weight * rec.e_term / (2.0 * M_PI);
  result.converged = result.converged && rec.converged;
  result.per_omega.push_back(std::move(rec));
}

// Load copts.path into the driver state. Refuses, with an Error, a
// checkpoint written by another method (checked before the fingerprint,
// so a cross-method resume names both methods instead of a bare hash
// mismatch), one whose fingerprint differs, and one whose sweep length or
// subspace shape does not match. Emits run_resumed into the lifecycle
// sink and returns the index of the first point still to run.
int restore(const Sweep& sweep, RpaResult& result) {
  const CheckpointOptions& copts = *sweep.checkpoint;
  io::RunCheckpoint ck = io::load_run_checkpoint(copts.path);
  RSRPA_REQUIRE_MSG(ck.result.method == result.method,
                    "checkpoint " + copts.path + " was written by the " +
                        ck.result.method + " driver; refusing to resume the " +
                        result.method + " driver from it");
  io::check_fingerprint(ck, sweep.fingerprint, copts.path);
  // Belt and braces: the fingerprint already covers these.
  RSRPA_REQUIRE_MSG(ck.ell == sweep.ell, "checkpoint ell mismatch");
  RSRPA_REQUIRE_MSG(ck.v.rows() == sweep.v->rows() &&
                        ck.v.cols() == sweep.v->cols(),
                    "checkpoint subspace shape mismatch");
  const int completed = ck.completed_points();
  // Assigned into the existing object, which keeps its address (and so
  // does its event log, the solver telemetry sink).
  result = std::move(ck.result);
  *sweep.v = std::move(ck.v);
  *sweep.rng = Rng::load_state(ck.rng_state);
  if (copts.events != nullptr)
    copts.events->emit(
        obs::events::kRunResumed, "resumed from " + copts.path,
        {{"completed_points", static_cast<double>(completed)},
         {"ell", static_cast<double>(ck.ell)}});
  return completed;
}

// Persist the state after point k, emit checkpoint_written into the
// lifecycle sink and fire the simulated-crash test hook (throws
// RunHalted) when armed for k.
void save(const Sweep& sweep, const RpaResult& result, int k) {
  const CheckpointOptions& copts = *sweep.checkpoint;
  io::save_run_checkpoint(copts.path,
                          {sweep.fingerprint, sweep.ell,
                           sweep.rng->save_state(), result, *sweep.v});
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

}  // namespace

void run_sweep(const Sweep& sweep, const WallTimer& total, RpaResult& result,
               const PointWork& work) {
  RSRPA_REQUIRE(sweep.ell >= 1 && sweep.n_atoms >= 1);
  const bool checkpointing =
      sweep.checkpoint != nullptr && !sweep.checkpoint->path.empty();
  RSRPA_REQUIRE(!checkpointing ||
                (sweep.v != nullptr && sweep.rng != nullptr));

  int k0 = 0;
  if (checkpointing && sweep.checkpoint->resume &&
      std::filesystem::exists(sweep.checkpoint->path))
    k0 = restore(sweep, result);

  // One-time notice when the requested Sternheimer tolerance is below
  // single-precision reach: the mixed inner solves clamp their tolerance
  // at sqrt(eps_f32) (solver/mixed.hpp) and the FP64 residual
  // replacement carries the remainder, so the request is still met — it
  // just shifts work to the outer loop. Emitted only on a fresh run
  // (k0 == 0): a restored event log already carries it.
  if (k0 == 0 && sweep.stern != nullptr &&
      sweep.stern->precision == common::Precision::kMixed &&
      sweep.stern->tol < solver::f32_tol_floor())
    result.events.emit(
        obs::events::kPrecisionClamped,
        "TOL below single-precision reach; FP32 inner tolerance clamped at "
        "sqrt(eps_f32), FP64 residual replacement carries the remainder",
        {{"requested_tol", sweep.stern->tol},
         {"clamped_tol", solver::f32_tol_floor()}});

  const std::vector<QuadPoint> quad = rpa_frequency_quadrature(sweep.ell);
  for (int k = k0; k < sweep.ell; ++k) {
    // The previous point's checkpoint (when enabled) is on disk here.
    check_run_control(sweep.control);
    const QuadPoint& q = quad[static_cast<std::size_t>(k)];
    WallTimer point_timer;
    OmegaRecord rec;
    rec.omega = q.omega;
    rec.weight = q.weight;
    work(k, rec);
    rec.seconds = point_timer.seconds();
    close_point(result, std::move(rec), k);
    if (sweep.after_close) sweep.after_close(k);
    if (checkpointing) save(sweep, result, k);
  }

  result.e_rpa_per_atom = result.e_rpa / static_cast<double>(sweep.n_atoms);
  result.total_seconds = total.seconds();
}

}  // namespace rsrpa::rpa
