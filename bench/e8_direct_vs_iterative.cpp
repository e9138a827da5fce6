// E8 / SS IV-C comparison: the iterative real-space formulation against
// the direct (full diagonalization + explicit Adler-Wiser chi0) approach
// on the smallest system.
//
// Expected shape (paper SS IV-C): the iterative formulation wins on even
// the smallest system tested — the paper reports ~40x against ABINIT on
// Si8 — and the gap widens with n_d because direct is quartic-class.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "direct/direct_rpa.hpp"
#include "obs/run_report.hpp"
#include "rpa/presets.hpp"

int main() {
  using namespace rsrpa;
  bench::JsonReport report("e8_direct_vs_iterative",
                           "SS IV-C ABINIT comparison",
                           "the iterative formulation beats the direct "
                           "approach on the smallest system; energies agree");

  const std::size_t grids[] = {7, 8, bench::full_scale() ? 10u : 9u};
  double prev_ratio = 0.0;
  bool iterative_wins = true, ratio_grows = true, energies_agree = true;
  obs::Json rows = obs::Json::array();

  std::printf("%-6s %-8s %-12s %-12s %-9s %-14s %-14s\n", "grid", "n_d",
              "direct(s)", "iterative(s)", "speedup", "E_dir(Ha/at)",
              "E_iter(Ha/at)");

  for (std::size_t gpc : grids) {
    rpa::SystemPreset preset = rpa::make_si_preset(1, false);
    preset.grid_per_cell = gpc;
    preset.fd_radius = 3;
    // Keep enough eigenvalues that truncation error is small vs. the
    // direct full-spectrum trace.
    preset.n_eig_per_atom = 10;
    rpa::BuiltSystem sys = rpa::build_system(preset);

    rpa::RpaResult dres =
        direct::compute_direct_rpa(*sys.h, sys.ks.n_occ(), *sys.klap, 8);

    rpa::RpaOptions iopts = sys.default_rpa_options();
    rpa::RpaResult ires = rpa::compute_rpa_energy(sys.ks, *sys.klap, iopts);

    const double speedup = dres.total_seconds / ires.total_seconds;
    std::printf("%-6zu %-8zu %-12.1f %-12.1f %-9.1f %-14.5f %-14.5f\n", gpc,
                preset.n_grid(), dres.total_seconds, ires.total_seconds,
                speedup, dres.e_rpa_per_atom, ires.e_rpa_per_atom);

    obs::Json row = obs::Json::object();
    row["grid_per_cell"] = obs::Json(gpc);
    row["n_d"] = obs::Json(preset.n_grid());
    row["direct_seconds"] = obs::Json(dres.total_seconds);
    row["direct_e_rpa_per_atom"] = obs::Json(dres.e_rpa_per_atom);
    row["speedup"] = obs::Json(speedup);
    row["iterative"] = obs::to_json(ires);
    rows.push_back(std::move(row));

    iterative_wins = iterative_wins && speedup > 1.0;
    if (prev_ratio > 0.0) ratio_grows = ratio_grows && speedup > prev_ratio;
    prev_ratio = speedup;
    // The iterative value keeps only n_eig of n_d eigenvalues. On the toy
    // model the dielectric spectrum decays more slowly than real silicon
    // (see fig1_spectrum), so the truncated value legitimately sits 20-30%
    // above the full trace (cf. the a6 oracle study); require the right
    // sign, same decade, and |iterative| <= |direct|.
    energies_agree =
        energies_agree && ires.e_rpa_per_atom < 0.0 &&
        std::abs(ires.e_rpa_per_atom) <=
            std::abs(dres.e_rpa_per_atom) * 1.02 &&
        std::abs(ires.e_rpa_per_atom) >
            0.5 * std::abs(dres.e_rpa_per_atom);
  }

  std::printf("\nChecks:\n");
  report.data()["rows"] = std::move(rows);
  report.add_check("iterative faster at every size", iterative_wins);
  report.add_check("speedup grows with n_d (cubic vs quartic-class)",
                   ratio_grows);
  report.add_check("energies agree within truncation budget", energies_agree);
  return report.finish();
}
