#include "rpa/erpa_slq.hpp"

#include <cmath>
#include <filesystem>

#include "io/checkpoint.hpp"
#include "rpa/checkpoint_driver.hpp"
#include "rpa/erpa.hpp"
#include "rpa/quadrature.hpp"
#include "rpa/trace_est.hpp"
#include "solver/mixed.hpp"

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
  const auto quad = rpa_frequency_quadrature(opts.ell);
  Rng rng(opts.seed);

  // Probe budget per point: fixed n_probes, or — with the adaptive CI
  // stop rule armed — batches of n_probes up to the cap.
  const bool adaptive = opts.target_rel_ci > 0.0;
  const int probe_cap =
      adaptive ? (opts.max_probes > 0 ? opts.max_probes : 8 * opts.n_probes)
               : opts.n_probes;

  const CheckpointOptions& copts = opts.checkpoint;
  const bool checkpointing = !copts.path.empty();
  const std::uint64_t fingerprint =
      checkpointing ? io::run_fingerprint(sys, opts) : 0;
  // No warm-start subspace: the checkpoint's V slot holds a 1x1 zero.
  la::Matrix<double> no_subspace(1, 1);

  int k0 = 0;
  if (checkpointing && copts.resume && std::filesystem::exists(copts.path))
    k0 = detail::restore_checkpoint(copts, fingerprint, opts.ell, out,
                                    no_subspace, rng);

  // Same one-time notice as compute_rpa_energy: a Sternheimer tolerance
  // below single-precision reach is clamped in the FP32 inner solves and
  // finished by FP64 residual replacement. Fresh runs only (k0 == 0).
  if (k0 == 0 && opts.stern.precision == common::Precision::kMixed &&
      opts.stern.tol < solver::f32_tol_floor())
    out.events.emit(
        obs::events::kPrecisionClamped,
        "TOL below single-precision reach; FP32 inner tolerance clamped at "
        "sqrt(eps_f32), FP64 residual replacement carries the remainder",
        {{"requested_tol", opts.stern.tol},
         {"clamped_tol", solver::f32_tol_floor()}});

  for (int k = k0; k < opts.ell; ++k) {
    check_run_control(opts.control);
    const QuadPoint& q = quad[static_cast<std::size_t>(k)];
    WallTimer omega_timer;
    long applies = 0;
    solver::BlockOpR mop = [&op, &q, &applies](const la::Matrix<double>& in,
                                               la::Matrix<double>& o) {
      op.apply(in, o, q.omega, nullptr, nullptr);
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

    OmegaRecord rec;
    rec.omega = q.omega;
    rec.weight = q.weight;
    rec.e_term = e_term;
    rec.converged = true;
    ProbeStats& p = rec.probes.emplace();
    p.n_probes = static_cast<int>(samples.size());
    p.lanczos_steps = opts.lanczos_steps;
    p.probe_stddev = stddev;
    p.ci_halfwidth = ci_halfwidth;
    p.rel_ci = e_term != 0.0 ? ci_halfwidth / std::abs(e_term) : 0.0;
    p.matvec_columns = applies;
    rec.seconds = omega_timer.seconds();
    out.events.emit(obs::events::kSlqOmegaEstimate,
                    "stochastic trace estimate",
                    {{"omega_index", static_cast<double>(k)},
                     {"omega", q.omega},
                     {"e_term", e_term},
                     {"probe_stddev", p.probe_stddev},
                     {"n_probes", static_cast<double>(p.n_probes)},
                     {"ci_halfwidth", p.ci_halfwidth},
                     {"rel_ci", p.rel_ci},
                     {"matvec_columns", static_cast<double>(applies)}});
    close_point(out, std::move(rec), k);

    if (checkpointing) {
      io::save_run_checkpoint(copts.path,
                              detail::make_checkpoint(fingerprint, k + 1,
                                                      opts.ell, out,
                                                      no_subspace, rng));
      detail::after_checkpoint_write(copts, k);
    }
  }

  out.e_rpa_per_atom = out.e_rpa / static_cast<double>(sys.h->crystal().n_atoms());
  out.total_seconds = total.seconds();
  return out;
}

}  // namespace rsrpa::rpa
