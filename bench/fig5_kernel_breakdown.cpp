// E6 / Fig. 5: per-kernel timing breakdown vs rank count for the largest
// default system: run_ranked on p column slices, with the modeled p-rank
// wall clock of support/kernel_breakdown.hpp.
//
// Expected shape (paper Fig. 5): the nu^{1/2} chi0 nu^{1/2} kernel
// dominates and scales well; matmult and eigensolve scale poorly and grow
// in relative share with p. The paper's eval error applies the operator
// afresh and tracks the apply kernel; here the Eq. (7) residual rotates
// the projection's A V, so the row is a norm reduction plus an allreduce
// (docs/THEORY.md section 7).
#include <cstdio>

#include "bench_util.hpp"
#include "rpa/presets.hpp"
#include "sched/thread_pool.hpp"
#include "support/kernel_breakdown.hpp"

int main() {
  using namespace rsrpa;
  bench::JsonReport report("fig5_kernel_breakdown", "Figure 5",
                           "nu chi0 apply dominates and scales; "
                           "matmult/eigensolve scale poorly, growing in "
                           "share with p");

  // One lane per simulated rank, as in the paper's one-core-per-rank runs:
  // each rank's orbital fan-out (rpa/chi0.hpp) and nested loops run
  // inline, and so does the p = 1 point. Quotas only regroup tasks, so no
  // bits change.
  sched::TaskQuotaScope one_lane_per_rank(1);
  rpa::SystemPreset preset =
      rpa::make_si_preset(bench::full_scale() ? 5 : 2, false);
  preset.grid_per_cell = 9;
  preset.n_eig_per_atom = 4;
  preset.fd_radius = 4;
  rpa::BuiltSystem sys = rpa::build_system(preset);
  std::printf("System: %s (n_d = %zu, n_eig = %zu)\n\n", preset.name.c_str(),
              preset.n_grid(), preset.n_eig());

  rpa::RpaOptions base = sys.default_rpa_options();
  base.ell = 1;
  base.tol_eig = {1e-30};
  base.max_filter_iter = 2;
  const par::CollectiveModel net;

  std::printf("%-6s %-12s %-12s %-12s %-12s %-12s %-10s\n", "p", "nu_chi0",
              "eval_error", "matmult", "eigensolve", "total", "chi0 share");

  double chi0_share_first = 0.0, chi0_share_last = 0.0;
  double t_nuchi0_first = 0.0, t_nuchi0_last = 0.0;
  std::size_t p_first = 1, p_last = 1;
  double stern_ai = 0.0;
  obs::Json points = obs::Json::array();

  for (std::size_t p = 1; p * 4 <= preset.n_eig() && p <= 64; p *= 2) {
    const sched::PoolStats pool0 = sched::global_pool().stats();
    const par::RankedRun run = par::run_ranked(sys.ks, *sys.klap, base, p);
    const rpa::RpaResult& res = run.result;
    const sched::PoolStats pool = sched::global_pool().stats().since(pool0);
    const par::KernelBreakdown k = par::modeled_breakdown(run, net);
    const double share = k.nu_chi0 / k.total();
    std::printf("%-6zu %-12.3f %-12.3f %-12.4f %-12.4f %-12.3f %-10.2f\n", p,
                k.nu_chi0, k.eval_error, k.matmult, k.eigensolve, k.total(),
                share);
    obs::Json pt = obs::Json::object();
    pt["p"] = obs::Json(p);
    pt["chi0_share"] = obs::Json(share);
    pt["result"] = par::scaling_report(run, net, pool);
    points.push_back(std::move(pt));
    if (p == 1) {
      chi0_share_first = share;
      t_nuchi0_first = k.nu_chi0;
      p_first = p;
      // Arithmetic intensity of the fused Sternheimer applies (paper
      // SS III-C): applied columns times the modeled per-column cost.
      if (res.stern.matvec_bytes > 0.0)
        stern_ai = res.stern.matvec_flops / res.stern.matvec_bytes;
    }
    chi0_share_last = share;
    t_nuchi0_last = k.nu_chi0;
    p_last = p;
  }

  const double chi0_speedup = t_nuchi0_first / t_nuchi0_last;
  const double chi0_eff =
      chi0_speedup / (static_cast<double>(p_last) / p_first);
  std::printf("\nChecks:\n");
  report.data()["points"] = std::move(points);
  report.data()["chi0_share_first"] = obs::Json(chi0_share_first);
  report.data()["chi0_share_last"] = obs::Json(chi0_share_last);
  report.data()["chi0_efficiency"] = obs::Json(chi0_eff);
  report.data()["stern_arithmetic_intensity"] = obs::Json(stern_ai);
  std::printf("Sternheimer apply AI (modeled, fused): %.3f flop/byte\n",
              stern_ai);
  report.add_check("nu_chi0 dominates at p = 1 (share > 0.5)",
                   chi0_share_first > 0.5);
  report.add_check("apply counters captured with positive AI",
                   stern_ai > 0.0);
  report.add_check("nu_chi0 parallel efficiency > 0.4", chi0_eff > 0.4);
  return report.finish();
}
