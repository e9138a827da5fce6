// Static subspace approximation (quadrature-point elision) suite, labeled
// `ssa` in ctest so it can be run alone under -DRSRPA_SANITIZE=address /
// =thread builds.
//
// Covers the tentpole contract from both ends: elision must be off by
// default and bitwise-invisible when off; when on, elided points must
// track the full solve to quadrature accuracy; the a-posteriori residual
// guard must catch a poisoned frozen basis (the warm-start reseed drill)
// and fall back; and a run killed inside the frozen phase must resume
// bitwise identically. All runs pin stern.dynamic_block = false — same
// reasoning as test_checkpoint.cpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "io/checkpoint.hpp"
#include "obs/run_report.hpp"
#include "rpa/erpa.hpp"
#include "rpa/presets.hpp"
#include "rpa/ssa.hpp"
#include "strip_timing.hpp"
#include "support/ranked.hpp"

namespace rsrpa {
namespace {

rpa::BuiltSystem& built() {
  static rpa::BuiltSystem b = [] {
    rpa::SystemPreset p = rpa::make_si_preset(1, false);
    p.grid_per_cell = 7;
    p.n_eig_per_atom = 2;  // n_eig = 16
    p.fd_radius = 3;
    return rpa::build_system(p);
  }();
  return b;
}

// Deterministic base sweep: 4 points so the frozen phase (freeze_after=2)
// holds two elidable points.
rpa::RpaOptions base_options() {
  rpa::RpaOptions opts = built().default_rpa_options();
  opts.n_eig = 16;
  opts.ell = 4;
  opts.tol_eig = {4e-3, 2e-3, 2e-3, 2e-3};
  opts.stern.dynamic_block = false;
  opts.stern.fixed_block = 4;
  return opts;
}

int count_elided(const rpa::RpaResult& r) {
  int n = 0;
  for (const rpa::OmegaRecord& rec : r.per_omega) n += rec.elided ? 1 : 0;
  return n;
}

int count_fallback(const rpa::RpaResult& r) {
  int n = 0;
  for (const rpa::OmegaRecord& rec : r.per_omega) n += rec.fallback ? 1 : 0;
  return n;
}

TEST(SsaOptions, FrozenPredicate) {
  rpa::SsaOptions ssa;  // default: disabled
  EXPECT_FALSE(rpa::ssa_frozen(ssa, 0));
  EXPECT_FALSE(rpa::ssa_frozen(ssa, 5));
  ssa.freeze_after = 2;
  EXPECT_FALSE(rpa::ssa_frozen(ssa, 0));
  EXPECT_FALSE(rpa::ssa_frozen(ssa, 1));
  EXPECT_TRUE(rpa::ssa_frozen(ssa, 2));
  EXPECT_TRUE(rpa::ssa_frozen(ssa, 7));
}

TEST(Ssa, DisabledByDefaultAndBitwiseInvisible) {
  auto& b = built();
  const rpa::RpaOptions opts = base_options();
  ASSERT_EQ(opts.ssa.freeze_after, 0);
  const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, opts);
  EXPECT_EQ(count_elided(r), 0);
  EXPECT_EQ(count_fallback(r), 0);
  EXPECT_EQ(r.events.count(obs::events::kSsaBasisFrozen), 0u);
  EXPECT_EQ(r.events.count(obs::events::kSsaPointElided), 0u);
  // No elision fields leak into the report of a plain run.
  const std::string report = obs::to_json(r).dump();
  EXPECT_EQ(report.find("projection_residual"), std::string::npos);
}

// The full-resolution sweep (ell = 8): the frozen-basis residual decays
// into the small-omega tail — the chi0 eigenvectors stop rotating once
// omega is well below the gap scale — so a guard on the a9-bench scale
// (1.5e-3) falls back where the basis is stale and elides once the tail
// stabilizes. Measured on this system at freeze=5 (augmented
// projection): residuals 4.8e-3 / 2.7e-3 / 1.3e-3 across the frozen
// points, so the last one elides after the two fallbacks re-anchor the
// basis, at dE = 9.0e-6 Ha/atom; the looser 5e-3 default would accept
// the stale 4.8e-3 head of the tail too, at dE = 2.1e-4 — relative
// energy error tracks the accepted residual, which is why the bound is
// the knob that buys accuracy.
rpa::RpaOptions ell8_options() {
  rpa::RpaOptions opts = base_options();
  opts.ell = 8;
  opts.tol_eig = {4e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3};
  return opts;
}

TEST(Ssa, GuardedSweepElidesTheTailAtQuadratureAccuracy) {
  auto& b = built();
  const rpa::RpaResult full =
      rpa::compute_rpa_energy(b.ks, *b.klap, ell8_options());
  ASSERT_TRUE(full.converged);

  rpa::RpaOptions opts = ell8_options();
  opts.ssa.freeze_after = 5;
  opts.ssa.residual_tol = 1.5e-3;
  const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  ASSERT_TRUE(std::isfinite(r.e_rpa));
  EXPECT_EQ(r.events.count(obs::events::kSsaBasisFrozen), 1u);
  ASSERT_EQ(r.per_omega.size(), 8u);
  // Pre-freeze points are plain full solves, bitwise equal to the
  // unfrozen run (elision must not perturb the phase before it starts).
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_FALSE(r.per_omega[k].elided);
    EXPECT_FALSE(r.per_omega[k].fallback);
    EXPECT_EQ(r.per_omega[k].e_term, full.per_omega[k].e_term);
    EXPECT_EQ(r.per_omega[k].eigenvalues, full.per_omega[k].eigenvalues);
  }
  // Frozen points carry exactly one of the two outcome flags plus the
  // residual the decision was made on.
  for (std::size_t k = 5; k < 8; ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    EXPECT_NE(r.per_omega[k].elided, r.per_omega[k].fallback);
    EXPECT_GT(r.per_omega[k].projection_residual, 0.0);
    if (r.per_omega[k].elided) {
      EXPECT_EQ(r.per_omega[k].filter_iterations, 0);
      EXPECT_TRUE(r.per_omega[k].converged);
      EXPECT_LE(r.per_omega[k].projection_residual, opts.ssa.residual_tol);
      EXPECT_EQ(r.per_omega[k].eigenvalues.size(), opts.n_eig);
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(count_elided(r)),
            r.events.count(obs::events::kSsaPointElided));
  EXPECT_EQ(static_cast<std::size_t>(count_fallback(r)),
            r.events.count(obs::events::kSsaFallback));
  // The guard's whole value proposition: with the refresh chain walking
  // the basis into the tail, at least the last point elides, and the
  // fallbacks keep the energy at quadrature accuracy (the a9 bench
  // enforces the same 1e-4 Ha/atom bound at scale).
  EXPECT_GE(count_elided(r), 1);
  EXPECT_GE(count_fallback(r), 1);
  EXPECT_TRUE(r.per_omega[7].elided);
  EXPECT_NEAR(r.e_rpa_per_atom, full.e_rpa_per_atom, 1e-4);
}

TEST(Ssa, StaleBasisResidualGrowsAwayFromTheFreezePoint) {
  // Forced elision (no guard): the a-posteriori residual must grow
  // monotonically as the elided frequency moves away from the last
  // solved one — the signal the guard thresholds on.
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  opts.ssa.freeze_after = 2;
  opts.ssa.residual_tol = 1e9;  // accept everything
  const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, opts);
  ASSERT_EQ(r.per_omega.size(), 4u);
  ASSERT_TRUE(r.per_omega[2].elided);
  ASSERT_TRUE(r.per_omega[3].elided);
  EXPECT_GT(r.per_omega[2].projection_residual, 0.0);
  EXPECT_GT(r.per_omega[3].projection_residual,
            r.per_omega[2].projection_residual);
}

TEST(Ssa, TightResidualBoundForcesFallbackAndMatchesBitwise) {
  // With an unreachable residual bound every frozen point falls back to a
  // full solve; those solves run on the live basis with untouched RNG
  // state, so eigenvalues and energy must be bitwise equal to the plain
  // run — the elision attempt is free of side effects.
  auto& b = built();
  const rpa::RpaResult full =
      rpa::compute_rpa_energy(b.ks, *b.klap, base_options());

  rpa::RpaOptions opts = base_options();
  opts.ssa.freeze_after = 2;
  opts.ssa.residual_tol = 1e-300;
  const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  EXPECT_EQ(count_elided(r), 0);
  EXPECT_EQ(count_fallback(r), 2);
  EXPECT_EQ(r.events.count(obs::events::kSsaFallback), 2u);
  EXPECT_EQ(r.e_rpa, full.e_rpa);
  ASSERT_EQ(r.per_omega.size(), full.per_omega.size());
  for (std::size_t k = 0; k < r.per_omega.size(); ++k) {
    EXPECT_EQ(r.per_omega[k].e_term, full.per_omega[k].e_term) << k;
    EXPECT_EQ(r.per_omega[k].eigenvalues, full.per_omega[k].eigenvalues) << k;
  }
}

TEST(Ssa, ReseedBeforeFreezeTriggersTheResidualGuard) {
  // Satellite drill: a persistent zero-matvec fault pinned to point 0
  // quarantines columns there; the warm-start hygiene re-randomizes them
  // before point 1 — which is where the basis freezes. A frozen basis
  // carrying freshly random columns cannot represent the remaining
  // frequencies, so the a-posteriori residual must blow past the bound
  // and the driver must fall back instead of silently elide garbage.
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  opts.stern.fault.mode = solver::FaultMode::kZeroMatvec;
  opts.stern.fault.at_apply = 0;
  opts.stern.fault.period = 1;
  opts.stern.fault.max_faults = 1 << 30;
  opts.stern.fault.orbital = 0;
  opts.stern.fault.omega = 0;
  opts.ssa.freeze_after = 1;
  const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  ASSERT_TRUE(r.degraded);
  ASSERT_GE(r.events.count(obs::events::kWarmStartReseed), 1u);
  ASSERT_TRUE(std::isfinite(r.e_rpa));
  // Point 1 froze a basis with re-randomized columns in it: the guard
  // must have fired there (elision of that point would be accepting a
  // subspace that never saw a solve at any nearby frequency).
  ASSERT_EQ(r.per_omega.size(), 4u);
  EXPECT_TRUE(r.per_omega[1].fallback);
  EXPECT_GT(r.per_omega[1].projection_residual, opts.ssa.residual_tol);
  EXPECT_GE(r.events.count(obs::events::kSsaFallback), 1u);
  // Downstream of the fallback the refreshed basis is converged
  // again and the run finishes clean.
  EXPECT_EQ(r.per_omega[2].quarantined_columns, 0);
  EXPECT_EQ(r.per_omega[3].quarantined_columns, 0);
}

TEST(Ssa, ProjectionReportsCollapseWithoutTouchingTheBasis) {
  // A rank-deficient basis (duplicated columns) must make ssa_project
  // report `collapsed` — and leave the basis bitwise untouched — rather
  // than orthonormalize in place the way the full driver's recovery does.
  const std::size_t n = 24, m = 4;
  Rng rng(3);
  la::Matrix<double> basis(n, m);
  rng.fill_uniform(basis.col(0));
  for (std::size_t j = 1; j < m; ++j)
    for (std::size_t i = 0; i < n; ++i) basis(i, j) = basis(i, 0);
  la::Matrix<double> before = basis;

  obs::EventLog events;
  const rpa::SsaProjection proj = rpa::ssa_project(
      [](const la::Matrix<double>& in, la::Matrix<double>& out) {
        for (std::size_t j = 0; j < in.cols(); ++j)
          for (std::size_t i = 0; i < in.rows(); ++i)
            out(i, j) = -0.5 * in(i, j);
      },
      basis, 1.0, &events);

  EXPECT_TRUE(proj.collapsed);
  EXPECT_EQ(events.count(obs::events::kEigensolveCollapse), 1u);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(basis(i, j), before(i, j));
}

TEST(Ssa, ProjectionIsExactOnAnInvariantSubspace) {
  // For a diagonal operator and a basis of exact eigenvectors the Ritz
  // values are the eigenvalues and the residual vanishes to rounding.
  const std::size_t n = 16, m = 3;
  la::Matrix<double> basis(n, m);
  for (std::size_t j = 0; j < m; ++j) basis(j, j) = 1.0;
  std::vector<double> diag(n, -0.01);
  diag[0] = -0.9;
  diag[1] = -0.5;
  diag[2] = -0.25;

  const rpa::SsaProjection proj = rpa::ssa_project(
      [&diag](const la::Matrix<double>& in, la::Matrix<double>& out) {
        for (std::size_t j = 0; j < in.cols(); ++j)
          for (std::size_t i = 0; i < in.rows(); ++i)
            out(i, j) = diag[i] * in(i, j);
      },
      basis, 1.0, nullptr);

  ASSERT_FALSE(proj.collapsed);
  ASSERT_EQ(proj.eigenvalues.size(), m);
  EXPECT_NEAR(proj.eigenvalues[0], -0.9, 1e-12);
  EXPECT_NEAR(proj.eigenvalues[1], -0.5, 1e-12);
  EXPECT_NEAR(proj.eigenvalues[2], -0.25, 1e-12);
  EXPECT_LT(proj.residual, 1e-12);
}

// ---------------------------------------------------------------------------
// Crash safety inside the frozen phase.

class SsaCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rsrpa_ssa_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(SsaCheckpointTest, KillInsideTheFrozenPhaseResumesBitwise) {
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  opts.ssa.freeze_after = 2;
  // Loose enough that both frozen points elide on this coarse grid
  // (measured residuals 5.3e-2 and 8.2e-2): the resume path is exercised
  // from a checkpoint written after an *elided* point, whose basis and
  // RNG state are untouched since the last full solve.
  opts.ssa.residual_tol = 0.1;
  const rpa::RpaResult straight = rpa::compute_rpa_energy(b.ks, *b.klap, opts);
  ASSERT_EQ(count_elided(straight), 2);

  for (int halt : {1, 2}) {  // before the freeze and after the first
                             // frozen point
    SCOPED_TRACE("halt after point " + std::to_string(halt));
    const std::string ckpt = path("ssa.ckpt");
    std::filesystem::remove(ckpt);

    rpa::RpaOptions killed = opts;
    killed.checkpoint.path = ckpt;
    killed.checkpoint.halt_after_point = halt;
    EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, killed),
                 rpa::RunHalted);

    rpa::RpaOptions resumed = opts;
    resumed.checkpoint.path = ckpt;
    resumed.checkpoint.resume = true;
    const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, resumed);

    EXPECT_EQ(r.e_rpa, straight.e_rpa);
    ASSERT_EQ(r.per_omega.size(), straight.per_omega.size());
    for (std::size_t k = 0; k < r.per_omega.size(); ++k) {
      EXPECT_EQ(r.per_omega[k].elided, straight.per_omega[k].elided) << k;
      EXPECT_EQ(r.per_omega[k].fallback, straight.per_omega[k].fallback) << k;
      EXPECT_EQ(r.per_omega[k].projection_residual,
                straight.per_omega[k].projection_residual)
          << k;
      EXPECT_EQ(r.per_omega[k].eigenvalues, straight.per_omega[k].eigenvalues)
          << k;
    }
    // The whole result log — including the ssa events — is part of the
    // resume contract (timing fields aside).
    EXPECT_EQ(strip_timing(obs::to_json(r.events)).dump(),
              strip_timing(obs::to_json(straight.events)).dump());
  }
}

TEST_F(SsaCheckpointTest, SsaPolicyIsPartOfTheFingerprint) {
  auto& b = built();
  const rpa::RpaOptions opts = base_options();
  const std::uint64_t base = io::run_fingerprint(b.ks, opts);

  rpa::RpaOptions o1 = opts;
  o1.ssa.freeze_after = 2;
  EXPECT_NE(io::run_fingerprint(b.ks, o1), base);
  rpa::RpaOptions o2 = opts;
  o2.ssa.residual_tol *= 2;
  EXPECT_NE(io::run_fingerprint(b.ks, o2), base);
}

// ---------------------------------------------------------------------------
// Ranked runs (p = 2).

TEST_F(SsaCheckpointTest, ParallelElisionKillAndResumeIsBitwise) {
  auto& b = built();
  rpa::RpaOptions base = base_options();
  base.ssa.freeze_after = 2;
  base.ssa.residual_tol = 0.1;  // elide both frozen points (see above)
  const rpa::RpaResult straight =
      par::run_ranked(b.ks, *b.klap, base, 2).result;
  ASSERT_TRUE(std::isfinite(straight.e_rpa));
  EXPECT_EQ(straight.events.count(obs::events::kSsaBasisFrozen), 1u);
  EXPECT_EQ(count_elided(straight), 2);

  const std::string ckpt = path("par_ssa.ckpt");
  rpa::RpaOptions killed = base;
  killed.checkpoint.path = ckpt;
  killed.checkpoint.halt_after_point = 2;  // first frozen point done
  EXPECT_THROW(par::run_ranked(b.ks, *b.klap, killed, 2), rpa::RunHalted);

  rpa::RpaOptions resumed = base;
  resumed.checkpoint.path = ckpt;
  resumed.checkpoint.resume = true;
  const rpa::RpaResult r = par::run_ranked(b.ks, *b.klap, resumed, 2).result;

  EXPECT_EQ(r.e_rpa, straight.e_rpa);
  ASSERT_EQ(r.per_omega.size(), straight.per_omega.size());
  for (std::size_t k = 0; k < r.per_omega.size(); ++k) {
    EXPECT_EQ(r.per_omega[k].elided, straight.per_omega[k].elided);
    EXPECT_EQ(r.per_omega[k].eigenvalues, straight.per_omega[k].eigenvalues);
  }
  EXPECT_EQ(strip_timing(obs::to_json(r.events)).dump(),
            strip_timing(obs::to_json(straight.events)).dump());
}

TEST(Ssa, ParallelElisionTracksTheParallelFullSolve) {
  auto& b = built();
  const rpa::RpaOptions full = ell8_options();
  const rpa::RpaResult plain = par::run_ranked(b.ks, *b.klap, full, 2).result;

  rpa::RpaOptions elide = full;
  elide.ssa.freeze_after = 5;
  elide.ssa.residual_tol = 1.5e-3;
  const rpa::RpaResult r = par::run_ranked(b.ks, *b.klap, elide, 2).result;

  EXPECT_GE(count_elided(r), 1);
  EXPECT_TRUE(r.per_omega[7].elided);
  EXPECT_NEAR(r.e_rpa_per_atom, plain.e_rpa_per_atom, 1e-4);
  // Pre-freeze points bitwise match the plain ranked run.
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_EQ(r.per_omega[k].eigenvalues, plain.per_omega[k].eigenvalues);
}

}  // namespace
}  // namespace rsrpa
