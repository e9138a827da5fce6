// A8 / ISDF crossover study: the three matrix-backed E_RPA routes — the
// direct Adler-Wiser trace, the iterative Sternheimer subspace driver,
// and the compressed ISDF backend — on a supercell size sweep at fixed
// grid resolution, all truncating to the same N_NUCHI_EIGS so they
// answer the same question.
//
// Sweeping N_CELLS at fixed grid_per_cell keeps nip/n_d constant at the
// default nip = c * n_occ (both scale linearly with cells), so a single
// default c gives a size-independent per-atom interpolation error —
// the intensive-quantity check the acceptance bound relies on.
//
// Expected shape: ISDF reproduces the Sternheimer energy to within the
// interpolation budget (<= 1e-4 Ha/atom at the default nip), its
// per-frequency work is GEMM-bound (assemble >= eigensolve time), and it
// beats the quartic direct route at the largest size. The informational
// `crossover` field records the smallest n_d where ISDF also beats the
// Sternheimer driver — the regime boundary DESIGN.md's "Choosing a
// backend" section describes.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "direct/direct_rpa.hpp"
#include "isdf/compressed.hpp"
#include "isdf/erpa_isdf.hpp"
#include "rpa/presets.hpp"

int main() {
  using namespace rsrpa;
  bench::JsonReport report("a8_isdf_crossover",
                           "ISDF low-rank chi0 backend (Lu-Thicke route)",
                           "compressed ISDF trace matches the Sternheimer "
                           "energy within 1e-4 Ha/atom at nip = c*n_occ, "
                           "GEMM-dominated, faster than the direct route");

  std::vector<std::size_t> sizes = {1, 2, 3};
  if (bench::full_scale()) sizes.push_back(4);

  bool energies_match = true, gemm_dominated = true;
  double crossover_nd = 0.0;  // smallest n_d where ISDF beats Sternheimer
  double direct_last = 0.0, isdf_last = 0.0;
  obs::Json rows = obs::Json::array();

  std::printf("%-6s %-6s %-5s %-10s %-10s %-10s %-13s %-13s %-9s\n", "cells",
              "n_d", "nip", "direct(s)", "stern(s)", "isdf(s)",
              "E_stern(Ha/a)", "E_isdf(Ha/a)", "gap");

  for (std::size_t cells : sizes) {
    rpa::SystemPreset preset = rpa::make_si_preset(cells, false);
    preset.grid_per_cell = 7;
    preset.fd_radius = 3;
    preset.n_eig_per_atom = 10;
    rpa::BuiltSystem sys = rpa::build_system(preset);

    // All three backends keep the same n_eig most negative eigenvalues
    // per omega, so the energies are directly comparable.
    rpa::RpaResult dres = direct::compute_direct_rpa(
        *sys.h, sys.ks.n_occ(), *sys.klap, 8, preset.n_eig());

    rpa::RpaOptions sopts = sys.default_rpa_options();
    rpa::RpaResult sres = rpa::compute_rpa_energy(sys.ks, *sys.klap, sopts);

    isdf::IsdfRpaOptions iopts;
    iopts.ell = 8;
    iopts.n_eig = preset.n_eig();
    isdf::Compression comp;
    rpa::RpaResult ires =
        isdf::compute_rpa_energy_isdf(sys.ks, *sys.klap, iopts, &comp);

    const double gap = std::abs(ires.e_rpa_per_atom - sres.e_rpa_per_atom);
    std::printf(
        "%-6zu %-6zu %-5zu %-10.2f %-10.2f %-10.2f %-13.5f %-13.5f %-9.1e\n",
        cells, preset.n_grid(), comp.nip, dres.total_seconds,
        sres.total_seconds, ires.total_seconds, sres.e_rpa_per_atom,
        ires.e_rpa_per_atom, gap);

    energies_match = energies_match && gap <= 1e-4;
    // GEMM dominance of the per-frequency loop: the assemble bucket (the
    // nov*nip^2 and nip^3 GEMMs) must outweigh the dense eigensolve.
    const double t_gemm = ires.timers.get(isdf::kernels::kAssemble);
    const double t_eig = ires.timers.get(isdf::kernels::kEigensolve);
    gemm_dominated = gemm_dominated && t_gemm >= t_eig;
    if (crossover_nd == 0.0 && ires.total_seconds < sres.total_seconds)
      crossover_nd = static_cast<double>(preset.n_grid());
    direct_last = dres.total_seconds;
    isdf_last = ires.total_seconds;

    // Compact scalars only — the interpolation points and per-omega
    // spectra belong in run reports, not a diffed baseline.
    obs::Json row = obs::Json::object();
    row["cells"] = obs::Json(cells);
    row["n_d"] = obs::Json(preset.n_grid());
    row["n_occ"] = obs::Json(sys.ks.n_occ());
    row["nip"] = obs::Json(comp.nip);
    row["n_eig"] = obs::Json(comp.n_eig);
    row["direct_seconds"] = obs::Json(dres.total_seconds);
    row["direct_e_rpa_per_atom"] = obs::Json(dres.e_rpa_per_atom);
    row["sternheimer_seconds"] = obs::Json(sres.total_seconds);
    row["sternheimer_e_rpa_per_atom"] = obs::Json(sres.e_rpa_per_atom);
    row["isdf_seconds"] = obs::Json(ires.total_seconds);
    row["isdf_e_rpa_per_atom"] = obs::Json(ires.e_rpa_per_atom);
    row["energy_gap_ha_per_atom"] = obs::Json(gap);
    row["fit_ridge"] = obs::Json(comp.fit_ridge);
    row["r_decay"] = obs::Json(
        comp.r_diag.empty() ? 0.0 : comp.r_diag.back() / comp.r_diag.front());
    row["gemm_seconds"] = obs::Json(t_gemm);
    row["eigensolve_seconds"] = obs::Json(t_eig);
    if (!ires.per_omega.empty()) {
      row["matvec_flops_per_freq"] = obs::Json(ires.per_omega[0].matvec_flops);
      row["matvec_bytes_per_freq"] = obs::Json(ires.per_omega[0].matvec_bytes);
    }
    rows.push_back(std::move(row));
  }

  std::printf("\nChecks:\n");
  report.data()["rows"] = std::move(rows);
  // Informational: 0 means ISDF never beat the Sternheimer driver in this
  // sweep (the crossover would sit above it).
  report.data()["crossover"] = obs::Json(crossover_nd);
  report.add_check("ISDF matches Sternheimer within 1e-4 Ha/atom",
                   energies_match);
  report.add_check("ISDF per-frequency loop is GEMM-dominated",
                   gemm_dominated);
  report.add_check("ISDF beats the direct route at the largest size",
                   isdf_last < direct_last);
  return report.finish();
}
