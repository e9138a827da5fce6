#include "support/ranked.hpp"

#include "sched/task_group.hpp"
#include "sched/thread_pool.hpp"

namespace rsrpa::par {

RankedRun run_ranked(const dft::KsSystem& sys,
                     const poisson::KroneckerLaplacian& klap,
                     rpa::RpaOptions opts, std::size_t p) {
  const ColumnPartition part(opts.n_eig, p);
  RankedRun run;
  run.apply_seconds.assign(p, 0.0);
  run.panel_rows = sys.n_grid();
  run.panel_cols = opts.n_eig;

  const int cap = static_cast<int>(part.max_block_size());
  if (opts.stern.max_block == 0 || opts.stern.max_block > cap)
    opts.stern.max_block = cap;

  // One task per rank's column slice. Output columns are disjoint, every
  // task accumulates telemetry into its own sinks, and the sinks merge in
  // ascending rank order after the join — so both the numbers and the
  // telemetry stream are those of sequential rank execution at any
  // thread count. The per-rank quota keeps the orbital fan-out inside
  // chi0 from oversubscribing the p concurrent ranks, so a rank's seconds
  // measure one rank's share of the machine.
  opts.apply_hook = [&part, p, &seconds = run.apply_seconds](
                        const rpa::NuChi0Operator& op, double omega,
                        const la::Matrix<double>& in, la::Matrix<double>& out,
                        rpa::SternheimerStats& stats, obs::EventLog& events) {
    std::vector<rpa::SternheimerStats> rank_stats(p);
    std::vector<obs::EventLog> rank_events(p);
    int share =
        std::max(1, sched::global_pool().threads() / static_cast<int>(p));
    if (const int outer = sched::current_task_quota(); outer > 0)
      share = std::min(share, outer);
    sched::TaskGroup group;
    for (std::size_t r = 0; r < p; ++r)
      group.run([&, r] {
        sched::TaskQuotaScope quota(share);
        WallTimer t;
        const std::size_t j0 = part.begin(r), cnt = part.count(r);
        la::Matrix<double> slice = in.slice_cols(j0, cnt);
        la::Matrix<double> oslice(in.rows(), cnt);
        op.apply(slice, oslice, omega, &rank_stats[r], nullptr,
                 &rank_events[r]);
        out.set_cols(j0, oslice);
        seconds[r] += t.seconds();  // slot r belongs to this task alone
      });
    group.wait();
    for (std::size_t r = 0; r < p; ++r) {
      // Rank r's quarantined-column indices are relative to its slice.
      stats.merge(rank_stats[r], static_cast<long>(part.begin(r)));
      events.merge(rank_events[r]);
    }
  };
  run.result = rpa::compute_rpa_energy(sys, klap, opts);
  return run;
}

}  // namespace rsrpa::par
