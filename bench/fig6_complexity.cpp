// E7 / Fig. 6: computational complexity with respect to the number of
// grid points n_d.
//
// Expected shape (paper Fig. 6): elapsed time scales sub-cubically —
// the paper fits O(n_d^2.95) on 24 cores and O(n_d^2.87) on 192. Here the
// fixed-work protocol of the scaling benches is applied to a size sweep
// and the log-log slope is fitted.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "rpa/presets.hpp"
#include "sched/thread_pool.hpp"
#include "support/kernel_breakdown.hpp"

int main() {
  using namespace rsrpa;
  bench::JsonReport report("fig6_complexity", "Figure 6",
                           "time-to-solution scales ~O(n_d^2.9) with system "
                           "size");

  const std::size_t max_cells = bench::full_scale() ? 5 : 3;
  std::vector<double> nds, times;
  obs::Json points = obs::Json::array();

  std::printf("%-8s %-8s %-8s %-8s %-12s\n", "system", "n_d", "n_s", "n_eig",
              "time(s)");
  for (std::size_t ncells = 1; ncells <= max_cells; ++ncells) {
    rpa::SystemPreset preset = rpa::make_si_preset(ncells, false);
    preset.grid_per_cell = 9;
    preset.n_eig_per_atom = 4;
    preset.fd_radius = 4;
    rpa::BuiltSystem sys = rpa::build_system(preset);

    rpa::RpaOptions opts = sys.default_rpa_options();
    opts.ell = 1;
    opts.tol_eig = {1e-30};
    opts.max_filter_iter = 2;
    const sched::PoolStats pool0 = sched::global_pool().stats();
    const par::RankedRun run = par::run_ranked(sys.ks, *sys.klap, opts, 1);
    const par::CollectiveModel net;
    const double t = par::modeled_breakdown(run, net).total();

    nds.push_back(static_cast<double>(preset.n_grid()));
    times.push_back(t);
    std::printf("%-8s %-8zu %-8zu %-8zu %-12.2f\n", preset.name.c_str(),
                preset.n_grid(), preset.n_occ(), preset.n_eig(), t);

    obs::Json pt = obs::Json::object();
    pt["system"] = obs::Json(preset.name);
    pt["n_d"] = obs::Json(preset.n_grid());
    pt["result"] = par::scaling_report(
        run, net, sched::global_pool().stats().since(pool0));
    points.push_back(std::move(pt));
  }

  const double slope = bench::loglog_slope(nds, times);
  std::printf("\nFitted exponent: time ~ O(n_d^%.2f)  (paper: 2.95 / 2.87)\n",
              slope);
  report.data()["points"] = std::move(points);
  report.data()["n_d"] = bench::json_array(nds);
  report.data()["times"] = bench::json_array(times);
  report.data()["fitted_exponent"] = obs::Json(slope);
  report.add_check("exponent in (2.0, 3.4) — cubic-class, not quartic",
                   slope > 2.0 && slope < 3.4);
  return report.finish();
}
