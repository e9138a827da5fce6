// E5 / Fig. 4: strong scaling of the RPA computation across rank counts:
// run_ranked on p column slices, with the modeled p-rank wall clock of
// support/kernel_breakdown.hpp (see DESIGN.md for the substitution).
//
// Expected shape (paper Fig. 4): good parallel efficiency at moderate p,
// degrading at high p from Sternheimer load imbalance and collective
// costs; the block-size cap n_eig/p >= 4 bounds the sweep exactly as in
// the paper.
#include <cstdio>

#include "bench_util.hpp"
#include "rpa/presets.hpp"
#include "sched/thread_pool.hpp"
#include "support/kernel_breakdown.hpp"

int main() {
  using namespace rsrpa;
  bench::JsonReport report("fig4_strong_scaling", "Figure 4",
                           "near-ideal scaling at small p, efficiency loss "
                           "at large p from load imbalance + collectives");

  // One lane per simulated rank, as in the paper's one-core-per-rank runs:
  // each rank's orbital fan-out (rpa/chi0.hpp) and nested loops run
  // inline, and so does the p = 1 point. Quotas only regroup tasks, so no
  // bits change.
  sched::TaskQuotaScope one_lane_per_rank(1);
  const std::size_t max_cells = bench::full_scale() ? 4 : 2;
  bool all_ok = true;
  obs::Json sweeps = obs::Json::array();

  for (std::size_t ncells = 1; ncells <= max_cells; ++ncells) {
    rpa::SystemPreset preset = rpa::make_si_preset(ncells, false);
    preset.grid_per_cell = 9;
    preset.n_eig_per_atom = 4;
    preset.fd_radius = 4;
    rpa::BuiltSystem sys = rpa::build_system(preset);

    // Fixed-work protocol: one quadrature point, exactly 2 filter passes
    // (tolerance unreachable), so every p runs the same mathematics and
    // only the partition (and its block-size cap) differs.
    rpa::RpaOptions base = sys.default_rpa_options();
    base.ell = 1;
    base.tol_eig = {1e-30};
    base.max_filter_iter = 2;
    const par::CollectiveModel net;

    std::printf("%s (n_d = %zu, n_eig = %zu):\n", preset.name.c_str(),
                preset.n_grid(), preset.n_eig());
    std::printf("  %-6s %-12s %-10s %-12s %-12s\n", "p", "T_model(s)",
                "speedup", "efficiency", "imbalance");

    double t1 = 0.0;
    double prev_t = 1e300;
    obs::Json points = obs::Json::array();
    for (std::size_t p = 1; p * 4 <= preset.n_eig(); p *= 2) {
      const sched::PoolStats pool0 = sched::global_pool().stats();
      const par::RankedRun run = par::run_ranked(sys.ks, *sys.klap, base, p);
      obs::Json rec = par::scaling_report(
          run, net, sched::global_pool().stats().since(pool0));
      const par::KernelBreakdown k = par::modeled_breakdown(run, net);
      if (p == 1) t1 = k.total();
      const double speedup = t1 / k.total();
      const double eff = speedup / static_cast<double>(p);
      // Load imbalance of the Sternheimer stage: critical path / average.
      const double avg = rec.at("apply_work_seconds").as_double() /
                         static_cast<double>(p);
      const double imb = (k.nu_chi0 + k.eval_error) / avg;
      std::printf("  %-6zu %-12.2f %-10.2f %-12.2f %-12.2f\n", p, k.total(),
                  speedup, eff, imb);
      all_ok = all_ok && k.total() <= prev_t * 1.10;
      prev_t = k.total();

      obs::Json pt = obs::Json::object();
      pt["p"] = obs::Json(p);
      pt["speedup"] = obs::Json(speedup);
      pt["efficiency"] = obs::Json(eff);
      pt["imbalance"] = obs::Json(imb);
      pt["result"] = std::move(rec);
      points.push_back(std::move(pt));
      if (p >= 64) break;
    }
    std::printf("\n");

    obs::Json sweep = obs::Json::object();
    sweep["system"] = obs::Json(preset.name);
    sweep["points"] = std::move(points);
    sweeps.push_back(std::move(sweep));
  }

  report.data()["sweeps"] = std::move(sweeps);
  report.add_check("modeled time non-increasing (within 10%) along sweeps",
                   all_ok);
  return report.finish();
}
