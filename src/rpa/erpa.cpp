#include "rpa/erpa.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>

#include "io/checkpoint.hpp"
#include "rpa/checkpoint_driver.hpp"
#include "rpa/partition.hpp"
#include "rpa/ssa.hpp"
#include "sched/task_group.hpp"
#include "solver/mixed.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::rpa {

namespace {

// Apply `op` to the full block as one concurrent task per rank's column
// slice (paper SS III-D), adding each slice's wall time to its rank's
// entry of `rank_seconds`. Output columns are disjoint, every task
// accumulates telemetry into its own sinks, and the sinks merge in
// ascending rank order after the join — so both the numbers and the
// telemetry stream are identical to sequential rank execution at any
// thread count.
void ranked_apply(const NuChi0Operator& op, const ColumnPartition& part,
                  double omega, const la::Matrix<double>& in,
                  la::Matrix<double>& out, std::vector<double>& rank_seconds,
                  SternheimerStats& stats, obs::EventLog& events) {
  const std::size_t p = part.n_ranks();
  std::vector<SternheimerStats> rank_stats(p);
  std::vector<obs::EventLog> rank_events(p);
  sched::TaskGroup group;
  for (std::size_t r = 0; r < p; ++r)
    group.run([&, r] {
      WallTimer t;
      const std::size_t j0 = part.begin(r), cnt = part.count(r);
      la::Matrix<double> slice = in.slice_cols(j0, cnt);
      la::Matrix<double> oslice(in.rows(), cnt);
      op.apply(slice, oslice, omega, &rank_stats[r], nullptr,
               &rank_events[r]);
      out.set_cols(j0, oslice);
      rank_seconds[r] += t.seconds();  // slot r belongs to this task alone
    });
  group.wait();
  for (std::size_t r = 0; r < p; ++r) {
    // Rank r's quarantined-column indices are relative to its slice.
    stats.merge(rank_stats[r], static_cast<long>(part.begin(r)));
    events.merge(rank_events[r]);
  }
}

}  // namespace

double rpa_trace_term(double mu) {
  // ln(1 - mu) is undefined for mu >= 1. The physical spectrum of
  // nu chi0(i omega) is non-positive, so a mu there signals a broken
  // subspace (e.g. a wildly inexact Sternheimer solve) — recoverable by
  // the driver, not worth aborting the whole quadrature over.
  if (mu >= 1.0) return std::numeric_limits<double>::quiet_NaN();
  return std::log1p(-mu) + mu;
}

double accumulate_trace_terms(const std::vector<double>& eigenvalues,
                              int omega_index, OmegaRecord& rec,
                              obs::EventLog* events) {
  double sum = 0.0;
  for (double mu : eigenvalues) {
    if (mu >= 1.0) {
      ++rec.invalid_terms;
      rec.worst_mu = std::max(rec.worst_mu, mu);
      rec.converged = false;
      if (events != nullptr)
        events->emit(obs::events::kTraceTermDomain,
                     "ln(1 - mu) undefined: skipping eigenvalue",
                     {{"omega_index", static_cast<double>(omega_index)},
                      {"mu", mu}});
      continue;
    }
    sum += rpa_trace_term(mu);
  }
  rec.e_term = sum;
  return sum;
}

void close_point(RpaResult& result, OmegaRecord rec, int k) {
  if (!rec.probes)
    accumulate_trace_terms(rec.eigenvalues, k, rec, &result.events);
  result.e_rpa += rec.weight * rec.e_term / (2.0 * M_PI);
  result.converged = result.converged && rec.converged;
  result.per_omega.push_back(std::move(rec));
}

double tol_for_point(const RpaOptions& opts, int k, obs::EventLog* events,
                     bool* warned) {
  RSRPA_REQUIRE(k >= 0 && k < opts.ell);
  if (opts.tol_eig.empty()) return 5e-4;
  if (opts.tol_eig.size() > static_cast<std::size_t>(opts.ell) &&
      events != nullptr && (warned == nullptr || !*warned)) {
    events->emit(obs::events::kTolEigTruncated,
                 "TOL_EIG has more entries than N_OMEGA; the excess is "
                 "ignored",
                 {{"tol_eig_entries", static_cast<double>(opts.tol_eig.size())},
                  {"ell", static_cast<double>(opts.ell)}});
    if (warned != nullptr) *warned = true;
  }
  return opts.tol_eig[std::min(static_cast<std::size_t>(k),
                               opts.tol_eig.size() - 1)];
}

RpaResult compute_rpa_energy(const dft::KsSystem& sys,
                             const poisson::KroneckerLaplacian& klap,
                             const RpaOptions& opts) {
  RSRPA_REQUIRE_MSG(opts.n_eig >= 1 && opts.n_eig <= sys.n_grid(),
                    "n_eig must be in [1, n_d]");
  RSRPA_REQUIRE_MSG(opts.n_ranks >= 1 && opts.n_ranks <= opts.n_eig,
                    "n_ranks must be in [1, n_eig] (paper SS III-D: every "
                    "rank owns at least one eigenvector column)");
  RSRPA_REQUIRE(opts.ell >= 1);

  WallTimer total;
  RpaResult result;
  const std::size_t p = opts.n_ranks;
  const ColumnPartition part(opts.n_eig, p);
  SternheimerOptions stern_opts = opts.stern;
  if (p == 1) {
    // Route solver-level telemetry (single-column fallbacks) into the
    // result's event log for the lifetime of this call.
    stern_opts.events = &result.events;
  } else {
    // Each rank caps its block size at n_eig / p (paper SS III-D). Solver
    // telemetry lands in per-rank logs that merge into the result log in
    // rank order after each join, so the options-level sink stays null
    // and concurrent tasks never share one.
    const int cap = static_cast<int>(part.max_block_size());
    if (stern_opts.max_block == 0 || stern_opts.max_block > cap)
      stern_opts.max_block = cap;
    stern_opts.events = nullptr;
    result.ranks.emplace();
    result.ranks->panel_rows = sys.n_grid();
    result.ranks->panel_cols = opts.n_eig;
    result.ranks->apply_seconds.assign(p, 0.0);
    result.ranks->error_seconds.assign(p, 0.0);
  }
  NuChi0Operator op(sys, klap, stern_opts);
  const std::vector<QuadPoint> quad = rpa_frequency_quadrature(opts.ell);

  // V carries the subspace across quadrature points (warm start).
  Rng rng(opts.seed);
  la::Matrix<double> v(sys.n_grid(), opts.n_eig);
  for (std::size_t j = 0; j < opts.n_eig; ++j) rng.fill_uniform(v.col(j));

  const CheckpointOptions& copts = opts.checkpoint;
  const bool checkpointing = !copts.path.empty();
  const std::uint64_t fingerprint =
      checkpointing ? io::run_fingerprint(sys, opts) : 0;

  int k0 = 0;
  bool tol_warned = false;
  if (checkpointing && copts.resume && std::filesystem::exists(copts.path)) {
    k0 = detail::restore_checkpoint(copts, fingerprint, opts.ell, result, v,
                                    rng);
    // The restored event log already carries point 0's one-time TOL_EIG
    // warning (if any); don't emit it twice.
    tol_warned = true;
  }

  // One-time notice when the requested Sternheimer tolerance is below
  // single-precision reach: the mixed inner solves clamp their tolerance
  // at sqrt(eps_f32) (solver/mixed.hpp) and the FP64 residual
  // replacement carries the remainder, so the request is still met — it
  // just shifts work to the outer loop. Emitted only on a fresh run
  // (k0 == 0): a restored event log already carries it.
  if (k0 == 0 && stern_opts.precision == common::Precision::kMixed &&
      stern_opts.tol < solver::f32_tol_floor())
    result.events.emit(
        obs::events::kPrecisionClamped,
        "TOL below single-precision reach; FP32 inner tolerance clamped at "
        "sqrt(eps_f32), FP64 residual replacement carries the remainder",
        {{"requested_tol", stern_opts.tol},
         {"clamped_tol", solver::f32_tol_floor()}});

  // Fault injection can be restricted to one quadrature point; the scope
  // guard owns the per-point toggling of the live operator's fault mode
  // and restores the requested mode on every exit path.
  solver::FaultModeScope fault_scope(op.chi0().options().fault.mode);

  for (int k = k0; k < opts.ell; ++k) {
    check_run_control(opts.control);
    const QuadPoint& q = quad[static_cast<std::size_t>(k)];
    WallTimer omega_timer;

    if (fault_scope.requested() != solver::FaultMode::kNone)
      fault_scope.select_for_point(k, opts.fault_omega);

    // nu^{1/2} chi0 nu^{1/2} at this omega. The eval_error applications
    // are timed by subspace_iteration; every other one is charged to
    // nu_chi0_apply here.
    const SubspaceApply apply = [&](const la::Matrix<double>& in,
                                    la::Matrix<double>& out,
                                    bool eval_error) {
      if (p == 1) {
        op.apply(in, out, q.omega, &result.stern,
                 eval_error ? nullptr : &result.timers);
        return;
      }
      WallTimer t;
      ranked_apply(op, part, q.omega, in, out,
                   eval_error ? result.ranks->error_seconds
                              : result.ranks->apply_seconds,
                   result.stern, result.events);
      if (!eval_error) result.timers.add(kernels::kNuChi0, t.seconds());
    };

    const bool frozen = ssa_frozen(opts.ssa, k);
    if (frozen && k == opts.ssa.freeze_after)
      // First frozen point of a straight run; on a resume past this index
      // the restored event log already carries the event.
      result.events.emit(
          obs::events::kSsaBasisFrozen,
          "static subspace frozen; remaining points evaluated by projection",
          {{"omega_index", static_cast<double>(k)},
           {"basis_columns", static_cast<double>(v.cols())}});

    // Without warm start each point restarts from a fresh random block —
    // except in the frozen phase, where the elision basis must survive.
    if (!opts.warm_start && k > 0 && !frozen)
      for (std::size_t j = 0; j < opts.n_eig; ++j) rng.fill_uniform(v.col(j));

    SubspaceOptions sopts;
    sopts.tol = tol_for_point(opts, k, &result.events, &tol_warned);
    sopts.max_filter_iter = opts.max_filter_iter;
    sopts.cheb_degree = opts.cheb_degree;

    const long quarantined_before = result.stern.quarantined_columns;
    const std::size_t quarantine_idx_before =
        result.stern.quarantined_column_indices.size();
    const double bytes_before = result.stern.matvec_bytes;
    const double flops_before = result.stern.matvec_flops;

    OmegaRecord rec;
    rec.omega = q.omega;
    rec.weight = q.weight;

    bool solve_in_full = !frozen;
    if (frozen) {
      // Projection-only candidate: a handful of fused applies against the
      // frozen basis, small dense eigensolves, a-posteriori residual. The
      // augmentation target sits a factor under the guard so accepted
      // elisions clear it with margin.
      const SsaProjection proj = ssa_project(
          [&](const la::Matrix<double>& in, la::Matrix<double>& out) {
            apply(in, out, false);
          },
          v, q.omega, &result.events, 0.25 * opts.ssa.residual_tol);
      result.timers.add(kernels::kMatmult, proj.matmult_seconds);
      result.timers.add(kernels::kEigensolve, proj.eigensolve_seconds);
      result.timers.add(kernels::kEvalError, proj.residual_seconds);
      rec.projection_residual = proj.residual;
      if (!proj.collapsed && proj.residual <= opts.ssa.residual_tol) {
        rec.elided = true;
        rec.filter_iterations = 0;
        rec.error = proj.residual;
        rec.converged = true;
        rec.eigenvalues = proj.eigenvalues;
        result.events.emit(
            obs::events::kSsaPointElided,
            "quadrature point evaluated by static-subspace projection",
            {{"omega_index", static_cast<double>(k)},
             {"projection_residual", proj.residual}});
      } else {
        // Accuracy guard: the frozen basis no longer represents this
        // omega well enough — fall back to a full solve.
        rec.fallback = true;
        solve_in_full = true;
        result.events.emit(
            obs::events::kSsaFallback,
            "projection residual above SSA_RESIDUAL_TOL; falling back to "
            "a full solve",
            {{"omega_index", static_cast<double>(k)},
             {"projection_residual", proj.residual},
             {"collapsed", proj.collapsed ? 1.0 : 0.0},
             {"refresh", opts.ssa.refresh ? 1.0 : 0.0}});
      }
    }

    if (solve_in_full) {
      // With SSA_REFRESH a fallback's converged eigenvectors become the
      // new frozen basis; off, the solve runs on a scratch copy and the
      // original basis stays frozen. Either way the fallback warm-starts
      // from the frozen basis — the best guess available.
      la::Matrix<double> scratch;
      const bool keep_basis = rec.fallback && !opts.ssa.refresh;
      if (keep_basis) scratch = v;
      la::Matrix<double>& target = keep_basis ? scratch : v;
      SubspaceResult sub = subspace_iteration(apply, q.omega, target, sopts,
                                              &result.timers, &result.events);
      rec.filter_iterations = sub.filter_iterations;
      rec.error = sub.error;
      rec.converged = sub.converged;
      rec.eigenvalues = sub.eigenvalues;
    }
    rec.quarantined_columns =
        result.stern.quarantined_columns - quarantined_before;
    rec.quarantined_column_indices =
        detail::quarantined_columns_since(result.stern, quarantine_idx_before);
    rec.matvec_bytes = result.stern.matvec_bytes - bytes_before;
    rec.matvec_flops = result.stern.matvec_flops - flops_before;
    if (rec.quarantined_columns > 0) {
      // The point's trace terms were computed from solves where the
      // quarantined columns still hold their initial guesses: finite, but
      // degraded. Flag it and keep going — one bad point must not kill
      // the quadrature.
      rec.converged = false;
      result.degraded = true;
      result.events.emit(
          obs::events::kQuadPointDegraded,
          "quadrature point computed with quarantined Sternheimer columns",
          {{"omega_index", static_cast<double>(k)},
           {"quarantined_columns",
            static_cast<double>(rec.quarantined_columns)}});
    }
    rec.seconds = omega_timer.seconds();
    close_point(result, std::move(rec), k);

    // Warm-start hygiene: a quarantined column's content is whatever the
    // recovery ladder froze it at — re-randomize before it seeds the next
    // point. Done before the checkpoint write so the persisted V already
    // includes the refill (resume needs no replay).
    const std::vector<long>& quarantined =
        result.per_omega.back().quarantined_column_indices;
    if (opts.warm_start && k + 1 < opts.ell && !quarantined.empty())
      detail::reseed_quarantined_columns(v, quarantined, rng, k,
                                         result.events);

    if (checkpointing) {
      io::save_run_checkpoint(copts.path,
                              detail::make_checkpoint(fingerprint, k + 1,
                                                      opts.ell, result, v,
                                                      rng));
      detail::after_checkpoint_write(copts, k);
    }
  }

  const std::size_t n_atoms = sys.h->crystal().n_atoms();
  result.e_rpa_per_atom = result.e_rpa / static_cast<double>(n_atoms);
  result.total_seconds = total.seconds();
  return result;
}

}  // namespace rsrpa::rpa
