#include "par/kernel_breakdown.hpp"

#include <algorithm>

#include "obs/run_report.hpp"

namespace rsrpa::par {

namespace {

// Measured per-rank seconds; a serial run is one rank (see header).
rpa::RankSeconds measured_ranks(const rpa::RpaResult& res) {
  if (res.ranks) return *res.ranks;
  rpa::RankSeconds one;
  one.apply_seconds = {res.timers.get(rpa::kernels::kNuChi0)};
  one.error_seconds = {0.0};
  return one;
}

}  // namespace

KernelBreakdown modeled_breakdown(const rpa::RpaResult& res, std::size_t p,
                                  const CollectiveModel& net) {
  const rpa::RankSeconds ranks = measured_ranks(res);
  RSRPA_REQUIRE_MSG(ranks.apply_seconds.size() == p,
                    "modeled_breakdown: p must be the run's n_ranks");
  // One Eq. (7) check per Rayleigh-Ritz pass (the unfiltered one plus one
  // per filter iteration) and one per SSA projection.
  long checks = 0;
  for (const rpa::OmegaRecord& rec : res.per_omega)
    checks += (rec.elided || rec.fallback ? 1 : 0) +
              (rec.elided ? 0 : rec.filter_iterations + 1);
  const std::size_t n = ranks.panel_rows, m = ranks.panel_cols;

  KernelBreakdown k;
  k.nu_chi0 = *std::max_element(ranks.apply_seconds.begin(),
                                ranks.apply_seconds.end());
  k.eval_error = *std::max_element(ranks.error_seconds.begin(),
                                   ranks.error_seconds.end()) +
                 res.timers.get(rpa::kernels::kEvalError) +
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

obs::Json scaling_report(const rpa::RpaResult& res, std::size_t p,
                         const CollectiveModel& net,
                         const sched::PoolStats& sched) {
  const KernelBreakdown modeled = modeled_breakdown(res, p, net);
  const rpa::RankSeconds ranks = measured_ranks(res);
  obs::Json j = obs::Json::object();
  j["n_ranks"] = p;
  j["rpa"] = obs::to_json(res);
  j["modeled"] = to_json(modeled);
  j["modeled_total_seconds"] = modeled.total();
  double work = 0.0;
  obs::Json rows = obs::Json::array();
  for (std::size_t r = 0; r < p; ++r) {
    work += ranks.apply_seconds[r] + ranks.error_seconds[r];
    KernelTimers timers;
    timers.add(rpa::kernels::kNuChi0, ranks.apply_seconds[r]);
    timers.add(rpa::kernels::kEvalError, ranks.error_seconds[r]);
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
