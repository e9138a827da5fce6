#include "rpa/erpa.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "io/checkpoint.hpp"
#include "rpa/ssa.hpp"
#include "rpa/sweep.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::rpa {

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

double tol_for_point(const RpaOptions& opts, int k, obs::EventLog* events) {
  RSRPA_REQUIRE(k >= 0 && k < opts.ell);
  if (opts.tol_eig.empty()) return 5e-4;
  if (opts.tol_eig.size() > static_cast<std::size_t>(opts.ell) &&
      events != nullptr)
    events->emit(obs::events::kTolEigTruncated,
                 "TOL_EIG has more entries than N_OMEGA; the excess is "
                 "ignored",
                 {{"tol_eig_entries", static_cast<double>(opts.tol_eig.size())},
                  {"ell", static_cast<double>(opts.ell)}});
  return opts.tol_eig[std::min(static_cast<std::size_t>(k),
                               opts.tol_eig.size() - 1)];
}

namespace {

// Sorted, deduplicated V-column indices quarantined since `idx_before`
// (a cursor into SternheimerStats::quarantined_column_indices taken at
// the start of the quadrature point).
std::vector<long> quarantined_columns_since(const SternheimerStats& stern,
                                            std::size_t idx_before) {
  const std::vector<long>& all = stern.quarantined_column_indices;
  if (idx_before >= all.size()) return {};
  const std::set<long> uniq(
      all.begin() + static_cast<std::ptrdiff_t>(idx_before), all.end());
  return {uniq.begin(), uniq.end()};
}

// Warm-start hygiene: refill the quarantined columns of `v` from
// decorrelated Rng::derive streams keyed on (quadrature point, column) —
// never on the engine position or thread identity — and emit a
// warm_start_reseed event into the result log. Without this the chain of
// paper SS III-F carries initial-guess garbage from a degraded point into
// every omega downstream of it.
void reseed_quarantined_columns(la::Matrix<double>& v,
                                const std::vector<long>& cols,
                                const Rng& rng, int omega_index,
                                obs::EventLog& events) {
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

}  // namespace

RpaResult compute_rpa_energy(const dft::KsSystem& sys,
                             const poisson::KroneckerLaplacian& klap,
                             const RpaOptions& opts) {
  RSRPA_REQUIRE_MSG(opts.n_eig >= 1 && opts.n_eig <= sys.n_grid(),
                    "n_eig must be in [1, n_d]");
  RSRPA_REQUIRE(opts.ell >= 1);

  WallTimer total;
  RpaResult result;
  SternheimerOptions stern_opts = opts.stern;
  // Route solver-level telemetry (single-column fallbacks) into the
  // result's event log for the lifetime of this call. A hook receives the
  // log per call instead: it may apply column slices concurrently, and
  // concurrent tasks must never share one sink.
  stern_opts.events = opts.apply_hook ? nullptr : &result.events;
  NuChi0Operator op(sys, klap, stern_opts);

  // V carries the subspace across quadrature points (warm start).
  Rng rng(opts.seed);
  la::Matrix<double> v(sys.n_grid(), opts.n_eig);
  for (std::size_t j = 0; j < opts.n_eig; ++j) rng.fill_uniform(v.col(j));

  Sweep sweep;
  sweep.ell = opts.ell;
  sweep.n_atoms = sys.h->crystal().n_atoms();
  sweep.control = opts.control;
  sweep.stern = &stern_opts;
  sweep.checkpoint = &opts.checkpoint;
  if (!opts.checkpoint.path.empty())
    sweep.fingerprint = io::run_fingerprint(sys, opts);
  sweep.v = &v;
  sweep.rng = &rng;
  // Warm-start hygiene: a quarantined column's content is whatever the
  // recovery ladder froze it at — re-randomize before it seeds the next
  // point. Done before the checkpoint write so the persisted V already
  // includes the refill (resume needs no replay).
  sweep.after_close = [&](int k) {
    const std::vector<long>& quarantined =
        result.per_omega.back().quarantined_column_indices;
    if (opts.warm_start && k + 1 < opts.ell && !quarantined.empty())
      reseed_quarantined_columns(v, quarantined, rng, k, result.events);
  };

  // Fault injection can be restricted to one quadrature point; the scope
  // guard owns the per-point toggling of the live operator's fault mode
  // and restores the requested mode on every exit path.
  solver::FaultModeScope fault_scope(op.chi0().options().fault.mode);

  run_sweep(sweep, total, result, [&](int k, OmegaRecord& rec) {
    const double omega = rec.omega;
    if (fault_scope.requested() != solver::FaultMode::kNone)
      fault_scope.select_for_point(k, opts.stern.fault.omega);

    // nu^{1/2} chi0 nu^{1/2} at this omega; every application is charged
    // to nu_chi0_apply.
    const SubspaceApply apply = [&](const la::Matrix<double>& in,
                                    la::Matrix<double>& out) {
      if (!opts.apply_hook) {
        op.apply(in, out, omega, &result.stern, &result.timers);
        return;
      }
      WallTimer t;
      opts.apply_hook(op, omega, in, out, result.stern, result.events);
      result.timers.add(kernels::kNuChi0, t.seconds());
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
    // The one-time TOL_EIG warning belongs to point 0; a resumed run
    // starts past it, and its restored event log already carries it.
    sopts.tol = tol_for_point(opts, k, k == 0 ? &result.events : nullptr);
    sopts.max_filter_iter = opts.max_filter_iter;
    sopts.cheb_degree = opts.cheb_degree;

    const long quarantined_before = result.stern.quarantined_columns;
    const std::size_t quarantine_idx_before =
        result.stern.quarantined_column_indices.size();
    const double bytes_before = result.stern.matvec_bytes;
    const double flops_before = result.stern.matvec_flops;

    bool solve_in_full = !frozen;
    if (frozen) {
      // Projection-only candidate: a handful of fused applies against the
      // frozen basis, small dense eigensolves, a-posteriori residual. The
      // augmentation target sits a factor under the guard so accepted
      // elisions clear it with margin.
      const SsaProjection proj =
          ssa_project(apply, v, omega, &result.events,
                      0.25 * opts.ssa.residual_tol);
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
             {"collapsed", proj.collapsed ? 1.0 : 0.0}});
      }
    }

    if (solve_in_full) {
      // A fallback warm-starts from the frozen basis (the best guess
      // available) and its converged eigenvectors become the new frozen
      // basis, so one fallback re-anchors the remaining tail.
      SubspaceResult sub = subspace_iteration(apply, omega, v, sopts,
                                              &result.timers, &result.events);
      rec.filter_iterations = sub.filter_iterations;
      rec.error = sub.error;
      rec.converged = sub.converged;
      rec.eigenvalues = sub.eigenvalues;
    }
    rec.quarantined_columns =
        result.stern.quarantined_columns - quarantined_before;
    rec.quarantined_column_indices =
        quarantined_columns_since(result.stern, quarantine_idx_before);
    rec.matvec_bytes = result.stern.matvec_bytes - bytes_before;
    rec.matvec_flops = result.stern.matvec_flops - flops_before;
  });
  return result;
}

}  // namespace rsrpa::rpa
