#include "rpa/erpa_slq.hpp"

#include <algorithm>
#include <cmath>

#include "io/checkpoint.hpp"
#include "rpa/sweep.hpp"
#include "rpa/trace_est.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::rpa {

RpaResult compute_rpa_energy_slq(const dft::KsSystem& sys,
                                 const poisson::KroneckerLaplacian& klap,
                                 const SlqRpaOptions& opts) {
  RSRPA_REQUIRE(opts.ell >= 1 && opts.n_probes >= 1 && opts.lanczos_steps >= 1);
  RSRPA_REQUIRE(opts.target_rel_ci >= 0.0 && opts.max_probes >= 0);

  WallTimer total;
  RpaResult out;
  out.method = methods::kSlq;
  NuChi0Operator op(sys, klap, opts.stern);
  Rng rng(opts.seed);

  // Probe budget per point: fixed n_probes, or — with the adaptive CI
  // stop rule armed — batches of n_probes up to the cap.
  const bool adaptive = opts.target_rel_ci > 0.0;
  const int probe_cap =
      adaptive ? (opts.max_probes > 0 ? opts.max_probes : 8 * opts.n_probes)
               : opts.n_probes;

  // No warm-start subspace: the checkpoint's V slot holds a 1x1 zero.
  la::Matrix<double> no_subspace(1, 1);
  Sweep sweep;
  sweep.ell = opts.ell;
  sweep.n_atoms = sys.h->crystal().n_atoms();
  sweep.control = opts.control;
  sweep.stern = &opts.stern;
  sweep.checkpoint = &opts.checkpoint;
  if (!opts.checkpoint.path.empty())
    sweep.fingerprint = io::run_fingerprint(sys, opts);
  sweep.v = &no_subspace;
  sweep.rng = &rng;

  // FAULT_OMEGA, as in compute_rpa_energy: the scope guard arms the
  // operator's fault mode at the targeted point only.
  solver::FaultModeScope fault_scope(op.chi0().options().fault.mode);

  run_sweep(sweep, total, out, [&](int k, OmegaRecord& rec) {
    const double omega = rec.omega;
    if (fault_scope.requested() != solver::FaultMode::kNone)
      fault_scope.select_for_point(k, opts.stern.fault.omega);
    long applies = 0;
    // The point's solver statistics: only its quarantine count reaches the
    // record (closing the point marks it degraded); the recovery ladder's
    // events go to the run log.
    SternheimerStats stats;
    solver::BlockOpR mop = [&](const la::Matrix<double>& in,
                               la::Matrix<double>& o) {
      op.apply(in, o, omega, &stats, nullptr, &out.events);
      applies += static_cast<long>(in.cols());
    };

    // Probes arrive in batches; the driver RNG advances sequentially
    // through them, so the sample stream — and everything downstream of
    // it — is identical whether a point used one batch or five, resumed
    // or ran straight through.
    std::vector<double> samples;
    double e_term = 0.0, stddev = 0.0, ci_halfwidth = 0.0;
    while (true) {
      const int batch = std::min(
          opts.n_probes, probe_cap - static_cast<int>(samples.size()));
      // The spectrum of M is non-positive; Ritz values may poke slightly
      // above zero from Lanczos rounding and loose Sternheimer solves, so
      // clamp before ln(1 - x).
      const std::vector<double> more = slq_trace_samples(
          mop, sys.n_grid(),
          [](double x) { return rpa_trace_term(std::min(x, 0.0)); }, batch,
          opts.lanczos_steps, rng);
      samples.insert(samples.end(), more.begin(), more.end());

      const double n = static_cast<double>(samples.size());
      e_term = 0.0;
      for (double s : samples) e_term += s;
      e_term /= n;
      stddev = 0.0;
      if (samples.size() > 1) {
        double ss = 0.0;
        for (double s : samples) ss += (s - e_term) * (s - e_term);
        stddev = std::sqrt(ss / (n - 1.0));
      }
      ci_halfwidth = samples.size() > 1 ? 1.96 * stddev / std::sqrt(n) : 0.0;

      if (static_cast<int>(samples.size()) >= probe_cap) break;
      // Stop once the 95% half-width is within target_rel_ci of the
      // estimate. Compared multiplicatively so an exactly-zero estimate
      // keeps sampling to the cap instead of dividing by it.
      if (adaptive && samples.size() > 1 &&
          ci_halfwidth <= opts.target_rel_ci * std::abs(e_term))
        break;
    }

    rec.e_term = e_term;
    rec.converged = true;
    rec.quarantined_columns = stats.quarantined_columns;
    ProbeStats& p = rec.probes.emplace();
    p.n_probes = static_cast<int>(samples.size());
    p.lanczos_steps = opts.lanczos_steps;
    p.probe_stddev = stddev;
    p.ci_halfwidth = ci_halfwidth;
    p.rel_ci = e_term != 0.0 ? ci_halfwidth / std::abs(e_term) : 0.0;
    p.matvec_columns = applies;
    out.events.emit(obs::events::kSlqOmegaEstimate,
                    "stochastic trace estimate",
                    {{"omega_index", static_cast<double>(k)},
                     {"omega", omega},
                     {"e_term", e_term},
                     {"probe_stddev", p.probe_stddev},
                     {"n_probes", static_cast<double>(p.n_probes)},
                     {"ci_halfwidth", p.ci_halfwidth},
                     {"rel_ci", p.rel_ci},
                     {"matvec_columns", static_cast<double>(applies)}});
  });
  return out;
}

}  // namespace rsrpa::rpa
