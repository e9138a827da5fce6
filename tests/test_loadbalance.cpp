// Tests for the work-distribution schedulers (SS V manager-worker study)
// and the SLQ-based E_RPA driver.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "par/load_balance.hpp"
#include "rpa/partition.hpp"
#include "direct/direct_rpa.hpp"
#include "rpa/erpa_slq.hpp"
#include "rpa/presets.hpp"

namespace rsrpa {
namespace {

TEST(Schedules, AllConserveTotalWork) {
  const std::vector<double> items = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  const double total = std::accumulate(items.begin(), items.end(), 0.0);
  for (std::size_t p : {1u, 2u, 3u, 5u}) {
    for (auto* fn : {par::static_schedule, par::manager_worker_schedule,
                     par::lpt_schedule}) {
      par::ScheduleResult r = fn(items, p);
      ASSERT_EQ(r.rank_loads.size(), p);
      double sum = std::accumulate(r.rank_loads.begin(), r.rank_loads.end(), 0.0);
      EXPECT_NEAR(sum, total, 1e-12);
      EXPECT_GE(r.makespan, total / static_cast<double>(p) - 1e-12);
      EXPECT_GE(r.imbalance(), 1.0 - 1e-12);
    }
  }
}

TEST(Schedules, SingleRankIsTotalWork) {
  const std::vector<double> items = {1, 2, 3};
  EXPECT_DOUBLE_EQ(par::static_schedule(items, 1).makespan, 6.0);
  EXPECT_DOUBLE_EQ(par::manager_worker_schedule(items, 1).makespan, 6.0);
}

TEST(Schedules, ManagerWorkerBeatsStaticOnSkewedItems) {
  // All heavy items in one static block: the exact failure mode of the
  // contiguous partition the paper describes.
  std::vector<double> items(16, 1.0);
  for (std::size_t i = 0; i < 4; ++i) items[i] = 10.0;
  const par::ScheduleResult st = par::static_schedule(items, 4);
  const par::ScheduleResult mw = par::manager_worker_schedule(items, 4);
  EXPECT_DOUBLE_EQ(st.makespan, 40.0);  // rank 0 gets all four heavy items
  EXPECT_LT(mw.makespan, st.makespan);
  EXPECT_LE(par::lpt_schedule(items, 4).makespan, mw.makespan + 1e-12);
}

TEST(Schedules, LptWithinClassicBound) {
  // Graham: LPT <= (4/3 - 1/(3p)) OPT, and OPT >= max(total/p, max item).
  Rng rng(5);
  std::vector<double> items(37);
  for (double& v : items) v = rng.uniform(0.1, 4.0);
  for (std::size_t p : {2u, 4u, 8u}) {
    const par::ScheduleResult r = par::lpt_schedule(items, p);
    const double total = std::accumulate(items.begin(), items.end(), 0.0);
    double mx = 0.0;
    for (double v : items) mx = std::max(mx, v);
    const double opt_lb = std::max(total / static_cast<double>(p), mx);
    EXPECT_LE(r.makespan,
              (4.0 / 3.0 - 1.0 / (3.0 * static_cast<double>(p))) * opt_lb *
                  (1.0 + 1e-12) + opt_lb * 1e-9);
  }
}

TEST(Schedules, MoreRanksThanItems) {
  // p > n: some ranks stay idle; the makespan is the heaviest single item
  // for every strategy and no work is invented or lost.
  const std::vector<double> items = {2.0, 5.0, 1.0};
  for (auto* fn : {par::static_schedule, par::manager_worker_schedule,
                   par::lpt_schedule}) {
    const par::ScheduleResult r = fn(items, 7);
    ASSERT_EQ(r.rank_loads.size(), 7u);
    EXPECT_DOUBLE_EQ(r.makespan, 5.0);
    const double sum =
        std::accumulate(r.rank_loads.begin(), r.rank_loads.end(), 0.0);
    EXPECT_DOUBLE_EQ(sum, 8.0);
    // At most n ranks carry load.
    int loaded = 0;
    for (double l : r.rank_loads) loaded += l > 0.0 ? 1 : 0;
    EXPECT_LE(loaded, 3);
  }
}

TEST(Schedules, SingleItemAtEveryRankCount) {
  const std::vector<double> items = {4.2};
  for (std::size_t p : {1u, 2u, 5u, 16u}) {
    for (auto* fn : {par::static_schedule, par::manager_worker_schedule,
                     par::lpt_schedule}) {
      const par::ScheduleResult r = fn(items, p);
      EXPECT_DOUBLE_EQ(r.makespan, 4.2);
      // One rank owns the item; a single item can never be balanced, so
      // imbalance is exactly p.
      EXPECT_DOUBLE_EQ(r.imbalance(), static_cast<double>(p));
    }
  }
}

TEST(Schedules, ZeroCostItemsAreSafe) {
  // All-zero measured costs (e.g. timer resolution underflow on trivial
  // columns) must not divide by zero: imbalance defaults to 1.0.
  const std::vector<double> items(12, 0.0);
  for (std::size_t p : {1u, 3u, 12u}) {
    for (auto* fn : {par::static_schedule, par::manager_worker_schedule,
                     par::lpt_schedule}) {
      const par::ScheduleResult r = fn(items, p);
      EXPECT_DOUBLE_EQ(r.makespan, 0.0);
      EXPECT_DOUBLE_EQ(r.imbalance(), 1.0);
    }
  }
}

TEST(ColumnPartition, ExhaustiveAndDisjointAtEveryRankCount) {
  // For every admissible p, the ranks' [begin, begin+count) intervals
  // must tile [0, n) exactly: contiguous, disjoint, balanced within one
  // column, with the paper's s <= n/p block cap.
  for (std::size_t n : {1u, 2u, 7u, 16u, 33u}) {
    for (std::size_t p = 1; p <= n; ++p) {
      rpa::ColumnPartition part(n, p);
      std::size_t next = 0;
      const std::size_t base = n / p;
      for (std::size_t r = 0; r < p; ++r) {
        EXPECT_EQ(part.begin(r), next) << "n=" << n << " p=" << p << " r=" << r;
        const std::size_t cnt = part.count(r);
        EXPECT_GE(cnt, base);
        EXPECT_LE(cnt, base + 1);
        next += cnt;
      }
      EXPECT_EQ(next, n) << "partition must cover all columns";
      EXPECT_EQ(part.max_block_size(), base);
    }
  }
}

TEST(SlqDriver, MatchesDirectFullTraceOnTinySystem) {
  rpa::SystemPreset preset = rpa::make_si_preset(1, false);
  preset.grid_per_cell = 7;
  preset.fd_radius = 3;
  rpa::BuiltSystem sys = rpa::build_system(preset);

  // SLQ estimates the FULL trace, so the correct oracle is the dense
  // direct result over all eigenvalues (the subspace driver truncates at
  // n_eig and differs by the tail).
  rpa::RpaResult dir =
      direct::compute_direct_rpa(*sys.h, sys.ks.n_occ(), *sys.klap, 4);

  rpa::SlqRpaOptions sopts;
  sopts.ell = 4;
  sopts.n_probes = 24;
  sopts.lanczos_steps = 16;
  sopts.stern.tol = 1e-4;
  rpa::RpaResult slq = rpa::compute_rpa_energy_slq(sys.ks, *sys.klap, sopts);

  EXPECT_EQ(slq.method, rpa::methods::kSlq);
  EXPECT_LT(slq.e_rpa, 0.0);
  EXPECT_NEAR(slq.e_rpa, dir.e_rpa, 0.08 * std::abs(dir.e_rpa));
  EXPECT_GT(rpa::slq_matvec_columns(slq), 0);
  ASSERT_EQ(slq.per_omega.size(), 4u);
  for (const rpa::OmegaRecord& rec : slq.per_omega) EXPECT_LT(rec.e_term, 0.0);
}

TEST(SlqDriver, MoreProbesReduceSpread) {
  rpa::SystemPreset preset = rpa::make_si_preset(1, false);
  preset.grid_per_cell = 7;
  preset.fd_radius = 3;
  rpa::BuiltSystem sys = rpa::build_system(preset);

  auto run = [&](int probes, std::uint64_t seed) {
    rpa::SlqRpaOptions sopts;
    sopts.ell = 1;  // single (largest) frequency is enough for spread
    sopts.n_probes = probes;
    sopts.lanczos_steps = 12;
    sopts.stern.tol = 1e-3;
    sopts.seed = seed;
    return rpa::compute_rpa_energy_slq(sys.ks, *sys.klap, sopts).e_rpa;
  };

  auto spread = [&](int probes) {
    double mn = 1e300, mx = -1e300;
    for (std::uint64_t s : {1ull, 2ull, 3ull, 4ull}) {
      const double e = run(probes, s);
      mn = std::min(mn, e);
      mx = std::max(mx, e);
    }
    return mx - mn;
  };

  // 16x the probes should cut the seed-to-seed spread decisively (~4x in
  // expectation; allow a weak factor to keep the test robust).
  EXPECT_LT(spread(32), spread(2));
}

TEST(SlqDriver, FixedModeRecordsCarryConfidenceIntervals) {
  rpa::SystemPreset preset = rpa::make_si_preset(1, false);
  preset.grid_per_cell = 7;
  preset.fd_radius = 3;
  rpa::BuiltSystem sys = rpa::build_system(preset);

  rpa::SlqRpaOptions sopts;
  sopts.ell = 2;
  sopts.n_probes = 8;
  sopts.lanczos_steps = 8;
  sopts.stern.tol = 1e-3;
  const rpa::RpaResult r =
      rpa::compute_rpa_energy_slq(sys.ks, *sys.klap, sopts);

  ASSERT_EQ(r.per_omega.size(), 2u);
  for (const rpa::OmegaRecord& rec : r.per_omega) {
    ASSERT_TRUE(rec.probes.has_value());
    const rpa::ProbeStats& p = *rec.probes;
    EXPECT_EQ(p.n_probes, 8);
    EXPECT_GT(p.probe_stddev, 0.0);
    // ci = 1.96 * stddev / sqrt(n), rel_ci = ci / |e_term|: internal
    // consistency of the published error bar.
    EXPECT_NEAR(p.ci_halfwidth, 1.96 * p.probe_stddev / std::sqrt(8.0),
                1e-15 + 1e-12 * p.ci_halfwidth);
    EXPECT_NEAR(p.rel_ci, p.ci_halfwidth / std::abs(rec.e_term),
                1e-15 + 1e-12 * p.rel_ci);
  }
}

TEST(SlqDriver, AdaptiveStopAddsProbesUntilTargetOrCap) {
  rpa::SystemPreset preset = rpa::make_si_preset(1, false);
  preset.grid_per_cell = 7;
  preset.fd_radius = 3;
  rpa::BuiltSystem sys = rpa::build_system(preset);

  rpa::SlqRpaOptions base;
  base.ell = 2;
  base.n_probes = 4;
  base.lanczos_steps = 8;
  base.stern.tol = 1e-3;

  // An easy target: the first batch's CI already satisfies it, so the
  // adaptive run must spend exactly the fixed-mode probe count.
  rpa::SlqRpaOptions easy = base;
  easy.target_rel_ci = 10.0;
  const rpa::RpaResult re =
      rpa::compute_rpa_energy_slq(sys.ks, *sys.klap, easy);
  for (const rpa::OmegaRecord& rec : re.per_omega)
    EXPECT_EQ(rec.probes->n_probes, base.n_probes);

  // An impossible target: every point must run to the probe cap, in
  // whole batches.
  rpa::SlqRpaOptions hard = base;
  hard.target_rel_ci = 1e-9;
  hard.max_probes = 12;
  const rpa::RpaResult rh =
      rpa::compute_rpa_energy_slq(sys.ks, *sys.klap, hard);
  for (const rpa::OmegaRecord& rec : rh.per_omega) {
    EXPECT_EQ(rec.probes->n_probes, 12);
    // tighter than easy
    EXPECT_LT(rec.probes->rel_ci, re.per_omega[0].probes->rel_ci * 10);
  }
  EXPECT_GT(rpa::slq_matvec_columns(rh), rpa::slq_matvec_columns(re));

  // Unset cap defaults to 8 * n_probes.
  rpa::SlqRpaOptions uncapped = base;
  uncapped.ell = 1;
  uncapped.target_rel_ci = 1e-9;
  const rpa::RpaResult ru =
      rpa::compute_rpa_energy_slq(sys.ks, *sys.klap, uncapped);
  ASSERT_EQ(ru.per_omega.size(), 1u);
  EXPECT_EQ(ru.per_omega[0].probes->n_probes, 8 * base.n_probes);

  // The adaptive run's tighter estimate stays consistent with the fixed
  // run (same physics, more probes).
  const rpa::RpaResult rf =
      rpa::compute_rpa_energy_slq(sys.ks, *sys.klap, base);
  EXPECT_NEAR(rh.e_rpa, rf.e_rpa,
              3.0 * (rf.per_omega[0].probes->ci_halfwidth +
                     rf.per_omega[1].probes->ci_halfwidth +
                     rh.per_omega[0].probes->ci_halfwidth +
                     rh.per_omega[1].probes->ci_halfwidth));
}

}  // namespace
}  // namespace rsrpa
