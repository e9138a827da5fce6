// The modeled p-rank wall clock behind Figs. 4, 5 and 6 — a
// post-processing view over a measured run.
//
// The paper's parallelization (SS III-D) assigns each of p ranks a block
// of n_eig/p eigenvector columns; the Sternheimer stage is embarrassingly
// parallel, while the projected matmults and the dense eigensolve run
// under ScaLAPACK. run_ranked (support/ranked.hpp) EXECUTES each rank's
// column slice as a real concurrent task and records each rank's seconds
// — capturing the real load imbalance from linear-system difficulty and
// from the s <= n_eig/p block-size cap. modeled_breakdown then assembles
// the parallel wall time per kernel:
//
//   nu_chi0     = max over ranks of measured apply time
//   eval error  = measured norm reduction + modeled allreduce
//   matmult     = measured sequential time / p + modeled redistribution
//   eigensolve  = measured / min(p, saturation) + modeled latency
//
// This is the substitution documented in DESIGN.md: both efficiency-loss
// mechanisms the paper reports (imbalance, collectives) are represented,
// the first by direct measurement. The Eq. (7) check reuses the
// projection's image A V, so unlike the paper's eval error kernel it
// applies nothing: the kernel is the serial eval_error timer plus the
// allreduce at every p.
#pragma once

#include "obs/json.hpp"
#include "sched/pool_stats.hpp"
#include "support/collective_model.hpp"
#include "support/ranked.hpp"

namespace rsrpa::par {

/// Modeled parallel wall time split by kernel (Fig. 5 rows).
struct KernelBreakdown {
  double nu_chi0 = 0.0;
  double matmult = 0.0;
  double eigensolve = 0.0;
  double eval_error = 0.0;

  [[nodiscard]] double total() const {
    return nu_chi0 + matmult + eigensolve + eval_error;
  }
};

/// The model above over a ranked run, at its rank count. The number of
/// Eq. (7) checks, each costing one allreduce, is derived from the
/// per-omega records.
KernelBreakdown modeled_breakdown(const RankedRun& run,
                                  const CollectiveModel& net);

/// The four kernels plus their `total`.
obs::Json to_json(const KernelBreakdown& k);

/// The record the scaling benches write per rank count: `n_ranks`; the
/// measured run as `rpa`; `modeled` and `modeled_total_seconds` from
/// modeled_breakdown; `apply_work_seconds`, the measured apply seconds
/// summed over ranks (the perfectly balanced baseline of the
/// load-imbalance ratio); one `ranks` row of measured timers per rank;
/// and `sched`, the caller's pool-stats delta across the run.
obs::Json scaling_report(const RankedRun& run, const CollectiveModel& net,
                         const sched::PoolStats& sched);

}  // namespace rsrpa::par
