// A6 / SS V future work item 1: replace the generalized eigensolve with
// Lanczos quadrature.
//
// Three-way comparison at matched Sternheimer settings on a system small
// enough for the dense oracle: the direct full-spectrum trace (ground
// truth), the subspace-iteration driver (Algorithm 6, truncates at
// n_eig), and the stochastic-Lanczos-quadrature driver (full trace,
// stochastic error, no Gram matrices or eigensolve — the embarrassing
// parallelism SS V argues for).
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "direct/direct_rpa.hpp"
#include "obs/run_report.hpp"
#include "rpa/erpa_slq.hpp"
#include "rpa/presets.hpp"

int main() {
  using namespace rsrpa;
  bench::JsonReport report("a6_slq_driver",
                           "SS V future work (Lanczos quadrature)",
                           "SLQ reproduces the full functional trace within "
                           "stochastic error, with no eigensolve");

  rpa::SystemPreset preset = rpa::make_si_preset(1, false);
  preset.grid_per_cell = bench::full_scale() ? 8 : 7;
  preset.n_eig_per_atom = 6;
  preset.fd_radius = 3;
  rpa::BuiltSystem sys = rpa::build_system(preset);
  std::printf("System: %s, n_d = %zu, n_eig = %zu\n\n", preset.name.c_str(),
              preset.n_grid(), preset.n_eig());

  rpa::RpaResult dir =
      direct::compute_direct_rpa(*sys.h, sys.ks.n_occ(), *sys.klap, 8);
  std::printf("direct full-spectrum trace : E_RPA = %+.6f Ha (oracle)\n",
              dir.e_rpa);

  rpa::RpaOptions eopts = sys.default_rpa_options();
  rpa::RpaResult eig = rpa::compute_rpa_energy(sys.ks, *sys.klap, eopts);
  std::printf("subspace driver (n_eig=%zu) : E_RPA = %+.6f Ha "
              "(truncation gap %.1f%%, %ld col applies)\n\n",
              eopts.n_eig, eig.e_rpa,
              100.0 * std::abs(eig.e_rpa - dir.e_rpa) / std::abs(dir.e_rpa),
              eig.stern.matvec_columns);

  std::printf("%-8s %-8s %-16s %-12s %-14s %-10s\n", "probes", "steps",
              "E_RPA(Ha)", "rel err", "col applies", "time(s)");
  double best_rel = 1e300;
  obs::Json slq_rows = obs::Json::array();
  for (int probes : {4, 8, 16, 32}) {
    rpa::SlqRpaOptions sopts;
    sopts.stern = eopts.stern;
    sopts.n_probes = probes;
    sopts.lanczos_steps = 14;
    rpa::RpaResult slq = rpa::compute_rpa_energy_slq(sys.ks, *sys.klap, sopts);
    const long applies = rpa::slq_matvec_columns(slq);
    const double rel =
        std::abs(slq.e_rpa - dir.e_rpa) / std::abs(dir.e_rpa);
    std::printf("%-8d %-8d %-16.6f %-12.3f %-14ld %-10.1f\n", probes,
                sopts.lanczos_steps, slq.e_rpa, rel, applies,
                slq.total_seconds);
    best_rel = std::min(best_rel, rel);
    obs::Json row = obs::Json::object();
    row["probes"] = obs::Json(probes);
    row["lanczos_steps"] = obs::Json(sopts.lanczos_steps);
    row["e_rpa"] = obs::Json(slq.e_rpa);
    row["rel_err"] = obs::Json(rel);
    row["matvec_columns"] = obs::Json(applies);
    row["seconds"] = obs::Json(slq.total_seconds);
    slq_rows.push_back(std::move(row));
  }

  report.data()["direct_e_rpa"] = obs::Json(dir.e_rpa);
  report.data()["subspace_driver"] = obs::to_json(eig);
  report.data()["slq_rows"] = std::move(slq_rows);
  report.add_check("best SLQ estimate within 8% of the exact full trace",
                   best_rel < 0.08);
  return report.finish();
}
