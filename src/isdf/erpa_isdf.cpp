#include "isdf/erpa_isdf.hpp"

#include <algorithm>
#include <cmath>

#include "direct/dense.hpp"
#include "isdf/compressed.hpp"
#include "isdf/fit.hpp"
#include "isdf/points.hpp"
#include "rpa/nu_chi0.hpp"
#include "rpa/quadrature.hpp"

namespace rsrpa::isdf {

rpa::RpaResult compute_rpa_energy_isdf(const dft::KsSystem& sys,
                                       const poisson::KroneckerLaplacian& klap,
                                       const IsdfRpaOptions& opts,
                                       Compression* compression) {
  RSRPA_REQUIRE(opts.ell >= 1);
  RSRPA_REQUIRE(opts.c_nip > 0.0);
  const std::size_t n_d = sys.n_grid();
  const std::size_t n_occ = sys.n_occ();
  RSRPA_REQUIRE_MSG(n_occ >= 1 && n_occ < n_d,
                    "ISDF needs at least one occupied and one virtual state");

  WallTimer total;
  rpa::RpaResult result;
  result.method = rpa::methods::kIsdf;
  Compression info;

  // The compressed coefficients sample exact eigenvector rows, so the
  // backend shares the direct route's one-time full diagonalization.
  WallTimer t_diag;
  const la::EigResult eig = direct::full_diagonalization(*sys.h);
  result.timers.add(rpa::kernels::kDiagonalize, t_diag.seconds());

  std::size_t nip = opts.nip != 0
                        ? opts.nip
                        : static_cast<std::size_t>(std::llround(
                              opts.c_nip * static_cast<double>(n_occ)));
  nip = std::clamp<std::size_t>(nip, 1, n_d);

  // The fit weights mirror the Adler-Wiser energy factor at the smallest
  // quadrature frequency (strongest response) unless overridden.
  const std::vector<rpa::QuadPoint> quad =
      rpa::rpa_frequency_quadrature(opts.ell);
  const double omega_ref =
      opts.omega_ref > 0.0 ? opts.omega_ref : quad.back().omega;
  const std::vector<double> weights =
      virtual_pair_weights(eig.values, n_occ, omega_ref);

  rpa::check_run_control(opts.control);
  WallTimer t_select;
  Rng rng(opts.seed);
  PointSelection sel =
      select_interpolation_points(eig, n_occ, weights, nip, opts.oversample,
                                  rng);
  result.timers.add(kernels::kSelect, t_select.seconds());
  if (sel.points.size() < nip) {
    result.events.emit(
        obs::events::kIsdfRankDeficient,
        "sketched pair space ran out of numerical rank before nip points",
        {{"nip_requested", static_cast<double>(nip)},
         {"nip_selected", static_cast<double>(sel.points.size())}});
    nip = sel.points.size();
  }
  info.nip = nip;
  info.points = sel.points;
  info.r_diag = sel.r_diag;
  result.events.emit(
      obs::events::kIsdfPointsSelected, "interpolation points selected",
      {{"nip", static_cast<double>(nip)},
       {"sketch_rows", static_cast<double>(sel.sketch_rows)},
       {"r_decay",
        sel.r_diag.empty() ? 0.0 : sel.r_diag.back() / sel.r_diag.front()}});

  WallTimer t_fit;
  FitResult fit =
      fit_interpolation_vectors(eig, n_occ, weights, sel.points, opts.ridge);
  info.fit_ridge = fit.ridge;
  if (fit.regularized)
    result.events.emit(obs::events::kIsdfFitRegularized,
                       "fit Gram matrix needed an escalated ridge",
                       {{"ridge", fit.ridge}});
  CompressedNuChi0 comp(eig, n_occ, sel.points, std::move(fit.theta), klap);
  result.timers.add(kernels::kFit, t_fit.seconds());

  // n_eig = 0 keeps the whole compressed spectrum; otherwise truncate to
  // the most negative eigenvalues exactly like the Sternheimer driver.
  const std::size_t keep =
      opts.n_eig == 0 ? nip : std::min<std::size_t>(opts.n_eig, nip);
  info.n_eig = keep;

  for (int k = 0; k < opts.ell; ++k) {
    rpa::check_run_control(opts.control);
    const rpa::QuadPoint& q = quad[static_cast<std::size_t>(k)];
    WallTimer omega_timer;

    std::vector<double> spec = comp.spectrum(q.omega, &result.timers);
    spec.resize(std::min(spec.size(), keep));  // ascending = most negative

    rpa::OmegaRecord rec;
    rec.omega = q.omega;
    rec.weight = q.weight;
    rec.converged = true;
    rec.eigenvalues = std::move(spec);
    rec.matvec_flops = comp.flops_per_freq();
    rec.matvec_bytes = comp.bytes_per_freq();
    rec.seconds = omega_timer.seconds();
    rpa::close_point(result, std::move(rec), k);
  }

  const std::size_t n_atoms = sys.h->crystal().n_atoms();
  result.e_rpa_per_atom = result.e_rpa / static_cast<double>(n_atoms);
  result.total_seconds = total.seconds();
  if (compression != nullptr) *compression = std::move(info);
  return result;
}

}  // namespace rsrpa::isdf
