#include "support/kernel_breakdown.hpp"

#include <algorithm>

#include "obs/run_report.hpp"

namespace rsrpa::par {

KernelBreakdown modeled_breakdown(const RankedRun& run,
                                  const CollectiveModel& net) {
  const rpa::RpaResult& res = run.result;
  const std::size_t p = run.apply_seconds.size();
  // One Eq. (7) check per Rayleigh-Ritz pass (the unfiltered one plus one
  // per filter iteration) and one per SSA projection.
  long checks = 0;
  for (const rpa::OmegaRecord& rec : res.per_omega)
    checks += (rec.elided || rec.fallback ? 1 : 0) +
              (rec.elided ? 0 : rec.filter_iterations + 1);
  const std::size_t n = run.panel_rows, m = run.panel_cols;

  KernelBreakdown k;
  k.nu_chi0 =
      *std::max_element(run.apply_seconds.begin(), run.apply_seconds.end());
  k.eval_error = res.timers.get(rpa::kernels::kEvalError) +
                 static_cast<double>(checks) * net.allreduce(8 * (m + 1), p);
  k.matmult = net.matmult_time(res.timers.get(rpa::kernels::kMatmult), n, m, p);
  k.eigensolve =
      net.eigensolve_time(res.timers.get(rpa::kernels::kEigensolve), m, p);
  return k;
}

obs::Json to_json(const KernelBreakdown& k) {
  obs::Json j = obs::Json::object();
  j["nu_chi0"] = k.nu_chi0;
  j["matmult"] = k.matmult;
  j["eigensolve"] = k.eigensolve;
  j["eval_error"] = k.eval_error;
  j["total"] = k.total();
  return j;
}

obs::Json scaling_report(const RankedRun& run, const CollectiveModel& net,
                         const sched::PoolStats& sched) {
  const KernelBreakdown modeled = modeled_breakdown(run, net);
  const std::size_t p = run.apply_seconds.size();
  obs::Json j = obs::Json::object();
  j["n_ranks"] = p;
  j["rpa"] = obs::to_json(run.result);
  j["modeled"] = to_json(modeled);
  j["modeled_total_seconds"] = modeled.total();
  double work = 0.0;
  obs::Json rows = obs::Json::array();
  for (std::size_t r = 0; r < p; ++r) {
    work += run.apply_seconds[r];
    KernelTimers timers;
    timers.add(rpa::kernels::kNuChi0, run.apply_seconds[r]);
    obs::Json row = obs::Json::object();
    row["rank"] = r;
    row["timers"] = obs::to_json(timers);
    rows.push_back(std::move(row));
  }
  j["apply_work_seconds"] = work;
  j["sched"] = obs::to_json(sched);
  j["ranks"] = std::move(rows);
  return j;
}

}  // namespace rsrpa::par
