// Tests for the breakdown-recovery ladder (solver/resilience.hpp): the
// deterministic fault-injection harness, each rung of the ladder in
// escalation order (restart -> deflation -> solver swap -> quarantine),
// report invariants under injected faults, and the end-to-end drill that
// a fault at one quadrature point degrades — never aborts — a full RPA
// run. Labeled `resilience` in ctest so the suite can be run alone under
// -DRSRPA_SANITIZE=address / =thread builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/lu.hpp"
#include "obs/event_log.hpp"
#include "rpa/erpa.hpp"
#include "rpa/erpa_slq.hpp"
#include "rpa/presets.hpp"
#include "solver/dynamic_block.hpp"
#include "solver/resilience.hpp"
#include "support/ranked.hpp"

namespace rsrpa::solver {
namespace {

using la::cplx;
using la::Matrix;

Matrix<cplx> random_complex_symmetric(std::size_t n, Rng& rng,
                                      cplx diag_shift) {
  Matrix<cplx> a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const cplx v{rng.uniform(-1, 1), rng.uniform(-1, 1)};
      a(i, j) = v;
      a(j, i) = v;
    }
  for (std::size_t i = 0; i < n; ++i) a(i, i) += diag_shift;
  return a;
}

BlockOpC dense_op(const Matrix<cplx>& a) {
  return [&a](const Matrix<cplx>& in, Matrix<cplx>& out) {
    la::gemm_nn(cplx{1}, a, in, cplx{0}, out);
  };
}

Matrix<cplx> random_cblock(std::size_t n, std::size_t s, Rng& rng) {
  Matrix<cplx> b(n, s);
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i)
      b(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return b;
}

double block_error(const Matrix<cplx>& a, const Matrix<cplx>& b) {
  double e = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      e = std::max(e, std::abs(a(i, j) - b(i, j)));
  return e;
}

bool block_finite(const Matrix<cplx>& m) {
  for (std::size_t j = 0; j < m.cols(); ++j)
    for (std::size_t i = 0; i < m.rows(); ++i)
      if (!std::isfinite(m(i, j).real()) || !std::isfinite(m(i, j).imag()))
        return false;
  return true;
}

// ---------------------------------------------------------------------------
// FaultInjectingOp: the deterministic chaos harness itself.

TEST(FaultInjection, ModeParsing) {
  EXPECT_EQ(fault_mode_from_string(""), FaultMode::kNone);
  EXPECT_EQ(fault_mode_from_string("none"), FaultMode::kNone);
  EXPECT_EQ(fault_mode_from_string("off"), FaultMode::kNone);
  EXPECT_EQ(fault_mode_from_string("nan"), FaultMode::kNanMatvec);
  EXPECT_EQ(fault_mode_from_string("perturb"), FaultMode::kPerturbMatvec);
  EXPECT_EQ(fault_mode_from_string("zero"), FaultMode::kZeroMatvec);
  EXPECT_THROW(fault_mode_from_string("bogus"), Error);
}

TEST(FaultModeScope, SelectsPerPointAndRestoresOnExit) {
  FaultMode slot = FaultMode::kNanMatvec;
  {
    FaultModeScope scope(slot);
    EXPECT_EQ(scope.requested(), FaultMode::kNanMatvec);
    scope.select_for_point(1, 0);  // fault pinned to point 0: disarmed
    EXPECT_EQ(slot, FaultMode::kNone);
    scope.select_for_point(0, 0);  // the targeted point: armed
    EXPECT_EQ(slot, FaultMode::kNanMatvec);
    scope.select_for_point(5, -1);  // -1 targets every point
    EXPECT_EQ(slot, FaultMode::kNanMatvec);
    scope.select_for_point(2, 0);
    EXPECT_EQ(slot, FaultMode::kNone);
  }
  // Regression: the drivers used to leave the live operator at whatever
  // the last point selected; the guard must restore the requested mode.
  EXPECT_EQ(slot, FaultMode::kNanMatvec);
}

TEST(FaultModeScope, RestoresOnTheExceptionPath) {
  FaultMode slot = FaultMode::kZeroMatvec;
  try {
    FaultModeScope scope(slot);
    scope.select_for_point(3, 0);
    EXPECT_EQ(slot, FaultMode::kNone);
    throw std::runtime_error("simulated crash mid-sweep");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(slot, FaultMode::kZeroMatvec);
}

TEST(FaultInjection, OneShotFaultFiresAtConfiguredApply) {
  Rng rng(11);
  Matrix<cplx> a = random_complex_symmetric(8, rng, cplx{6.0, 1.0});
  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kNanMatvec;
  fopts.at_apply = 2;
  fopts.max_faults = 1;
  FaultInjectingOp op(dense_op(a), fopts);

  Matrix<cplx> in = random_cblock(8, 1, rng), out(8, 1);
  for (long idx = 0; idx < 5; ++idx) {
    op(in, out);
    EXPECT_EQ(block_finite(out), idx != 2) << "apply " << idx;
  }
  EXPECT_EQ(op.applies(), 5);
  EXPECT_EQ(op.faults_injected(), 1);
}

TEST(FaultInjection, PeriodicFaultsRespectBudget) {
  Rng rng(12);
  Matrix<cplx> a = random_complex_symmetric(6, rng, cplx{6.0, 1.0});
  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kZeroMatvec;
  fopts.at_apply = 0;
  fopts.period = 2;
  fopts.max_faults = 3;
  FaultInjectingOp op(dense_op(a), fopts);

  Matrix<cplx> in = random_cblock(6, 1, rng), out(6, 1);
  int zeroed = 0;
  for (long idx = 0; idx < 7; ++idx) {
    op(in, out);
    const bool is_zero = la::norm_fro(out) == 0.0;
    if (is_zero) ++zeroed;
    // Fires at applies 0, 2, 4 then the budget is spent.
    EXPECT_EQ(is_zero, idx % 2 == 0 && idx <= 4) << "apply " << idx;
  }
  EXPECT_EQ(zeroed, 3);
  EXPECT_EQ(op.faults_injected(), 3);
}

TEST(FaultInjection, PerturbationIsDeterministicInSeed) {
  Rng rng(13);
  Matrix<cplx> a = random_complex_symmetric(6, rng, cplx{6.0, 1.0});
  Matrix<cplx> in = random_cblock(6, 2, rng);

  auto run = [&](std::uint64_t seed) {
    FaultInjectionOptions fopts;
    fopts.mode = FaultMode::kPerturbMatvec;
    fopts.at_apply = 0;
    fopts.max_faults = 1;
    fopts.seed = seed;
    FaultInjectingOp op(dense_op(a), fopts);
    Matrix<cplx> out(6, 2);
    op(in, out);
    return out;
  };

  Matrix<cplx> first = run(42), again = run(42), other = run(43);
  EXPECT_EQ(block_error(first, again), 0.0);  // bitwise reproducible
  EXPECT_GT(block_error(first, other), 0.0);
}

TEST(FaultInjection, CopiesShareTheApplyCounter) {
  Rng rng(14);
  Matrix<cplx> a = random_complex_symmetric(5, rng, cplx{6.0, 1.0});
  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kNanMatvec;
  fopts.at_apply = 1;
  FaultInjectingOp op(dense_op(a), fopts);
  FaultInjectingOp copy = op;  // BlockOpC copies the callable

  Matrix<cplx> in = random_cblock(5, 1, rng), out(5, 1);
  op(in, out);
  copy(in, out);  // apply index 1: the copy must see the shared counter
  EXPECT_FALSE(block_finite(out));
  EXPECT_EQ(op.applies(), 2);
  EXPECT_EQ(copy.faults_injected(), 1);
}

// ---------------------------------------------------------------------------
// The ladder, rung by rung.

TEST(ResilienceLadder, TransientNanFaultRecoversWithOneRestart) {
  Rng rng(21);
  const std::size_t n = 30, s = 4;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, s, rng);
  Matrix<cplx> y(n, s);

  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kNanMatvec;
  fopts.at_apply = 1;  // poison the first iteration's block matvec
  fopts.max_faults = 1;
  FaultInjectingOp op(dense_op(a), fopts);

  SolverOptions sopts;
  sopts.tol = 1e-10;
  obs::EventLog events;
  ResilientSolveResult r =
      resilient_block_solve(op, b, y, sopts, ResilienceOptions{}, 0, &events);

  EXPECT_TRUE(r.report.converged);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.deflations, 0);
  EXPECT_EQ(r.solver_swaps, 0);
  EXPECT_TRUE(r.quarantined.empty());
  EXPECT_EQ(events.count(obs::events::kSolverBreakdown), 1u);
  EXPECT_EQ(events.count(obs::events::kSolverRestart), 1u);
  EXPECT_LT(block_error(y, la::lu_solve(a, b)), 1e-7);
}

TEST(ResilienceLadder, DependentColumnsDeflateToSingles) {
  Rng rng(22);
  const std::size_t n = 24;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, 2, rng);
  for (std::size_t i = 0; i < n; ++i) b(i, 1) = b(i, 0);  // rank-1 block
  Matrix<cplx> y(n, 2);

  SolverOptions sopts;
  sopts.tol = 1e-10;
  obs::EventLog events;
  ResilientSolveResult r = resilient_block_solve(
      dense_op(a), b, y, sopts, ResilienceOptions{}, 0, &events);

  EXPECT_TRUE(r.report.converged);
  // The initial rank check touches nothing, so no restart is spent on it.
  EXPECT_EQ(r.restarts, 0);
  EXPECT_EQ(r.deflations, 1);
  EXPECT_EQ(r.solver_swaps, 0);
  EXPECT_TRUE(r.quarantined.empty());
  EXPECT_EQ(events.count(obs::events::kBlockDeflation), 1u);
  EXPECT_LT(block_error(y, la::lu_solve(a, b)), 1e-7);
}

TEST(ResilienceLadder, QuasiNullColumnEscalatesToGmres) {
  // A = diag(1, 1, 2), b = (1, i, 1): after one COCG step the residual is
  // a genuine quasi-null vector (w^T w = 0, w != 0) — the COCG restart
  // breaks down like every bilinear-form method, and GMRES, with its
  // Hermitian inner product, finishes the column.
  Matrix<cplx> a(3, 3);
  a(0, 0) = cplx{1.0, 0.0};
  a(1, 1) = cplx{1.0, 0.0};
  a(2, 2) = cplx{2.0, 0.0};
  Matrix<cplx> b(3, 1);
  b(0, 0) = cplx{1.0, 0.0};
  b(1, 0) = cplx{0.0, 1.0};
  b(2, 0) = cplx{1.0, 0.0};
  Matrix<cplx> y(3, 1);

  SolverOptions sopts;
  sopts.tol = 1e-10;
  obs::EventLog events;
  ResilientSolveResult r = resilient_block_solve(
      dense_op(a), b, y, sopts, ResilienceOptions{}, 0, &events);

  EXPECT_TRUE(r.report.converged);
  EXPECT_EQ(r.restarts, 1);    // the first breakdown had made progress
  EXPECT_EQ(r.deflations, 0);  // single column: nothing to halve
  EXPECT_EQ(r.solver_swaps, 1);
  EXPECT_TRUE(r.quarantined.empty());
  EXPECT_EQ(events.count(obs::events::kSolverRestart), 1u);
  EXPECT_EQ(events.count(obs::events::kSolverSwap), 1u);
  EXPECT_NEAR(std::abs(y(0, 0) - cplx{1.0, 0.0}), 0.0, 1e-8);
  EXPECT_NEAR(std::abs(y(1, 0) - cplx{0.0, 1.0}), 0.0, 1e-8);
  EXPECT_NEAR(std::abs(y(2, 0) - cplx{0.5, 0.0}), 0.0, 1e-8);
}

TEST(ResilienceLadder, PersistentZeroFaultQuarantinesAllColumns) {
  Rng rng(23);
  const std::size_t n = 16, s = 2;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, s, rng);
  Matrix<cplx> guess = random_cblock(n, s, rng);
  Matrix<cplx> y = guess;

  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kZeroMatvec;
  fopts.at_apply = 0;
  fopts.period = 1;  // every single apply
  fopts.max_faults = 1 << 30;
  FaultInjectingOp op(dense_op(a), fopts);

  SolverOptions sopts;
  sopts.tol = 1e-10;
  obs::EventLog events;
  ResilientSolveResult r =
      resilient_block_solve(op, b, y, sopts, ResilienceOptions{},
                            /*col0=*/3, &events);

  EXPECT_FALSE(r.report.converged);
  ASSERT_EQ(r.quarantined.size(), 2u);
  EXPECT_EQ(r.quarantined[0], 3);  // global indices, offset by col0
  EXPECT_EQ(r.quarantined[1], 4);
  EXPECT_EQ(r.deflations, 1);
  EXPECT_EQ(r.solver_swaps, 2);  // one GMRES attempt per surviving column
  EXPECT_EQ(events.count(obs::events::kColumnQuarantine), 2u);
  // Quarantined columns come back as the entry guess, bit for bit: the
  // only iterate still trusted, and finite by construction.
  EXPECT_EQ(block_error(y, guess), 0.0);
  // Failed attempts still cost matvecs and must be accounted.
  EXPECT_GT(r.report.matvec_columns, 0);
}

TEST(ResilienceLadder, DisabledPolicyPropagatesBreakdown) {
  Rng rng(24);
  const std::size_t n = 12;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, 2, rng);
  for (std::size_t i = 0; i < n; ++i) b(i, 1) = b(i, 0);
  Matrix<cplx> y(n, 2);

  SolverOptions sopts;
  ResilienceOptions ropts;
  ropts.enabled = false;  // legacy behavior: breakdowns escape
  EXPECT_THROW(resilient_block_solve(dense_op(a), b, y, sopts, ropts),
               NumericalBreakdown);
}

// ---------------------------------------------------------------------------
// Algorithm 4 under faults: recovered chunks never feed the timing probe,
// and the probe retries at the same size after a poisoned chunk.

TEST(DynamicBlockResilience, PoisonedProbeChunkIsRetried) {
  Rng rng(31);
  const std::size_t n = 40, n_rhs = 12;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);
  Matrix<cplx> y(n, n_rhs);

  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kNanMatvec;
  fopts.at_apply = 1;  // hits the very first s = 1 probe chunk
  fopts.max_faults = 1;
  FaultInjectingOp op(dense_op(a), fopts);

  DynamicBlockOptions opts;
  opts.solver.tol = 1e-10;
  obs::EventLog events;
  opts.events = &events;
  DynamicBlockReport rep = solve_dynamic_block(op, b, y, opts);

  EXPECT_TRUE(rep.all_converged);
  EXPECT_EQ(rep.total_restarts, 1);
  EXPECT_TRUE(rep.quarantined_columns.empty());
  ASSERT_GE(rep.chunks.size(), 2u);
  // Chunk 0 recovered via restart, so it cannot anchor the probe; chunk 1
  // re-probes at the same size s = 1.
  EXPECT_EQ(rep.chunks[0].block_size, 1);
  EXPECT_EQ(rep.chunks[0].restarts, 1);
  EXPECT_TRUE(rep.chunks[0].recovered());
  EXPECT_EQ(rep.chunks[1].block_size, 1);
  EXPECT_FALSE(rep.chunks[1].recovered());
  EXPECT_EQ(events.count(obs::events::kSolverRestart), 1u);
  EXPECT_LT(block_error(y, la::lu_solve(a, b)), 1e-7);
}

TEST(DynamicBlockResilience, AllChunksQuarantinedStillCoversEveryColumn) {
  Rng rng(32);
  const std::size_t n = 20, n_rhs = 5;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);
  Matrix<cplx> y(n, n_rhs);

  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kZeroMatvec;
  fopts.at_apply = 0;
  fopts.period = 1;
  fopts.max_faults = 1 << 30;
  FaultInjectingOp op(dense_op(a), fopts);

  DynamicBlockOptions opts;
  obs::EventLog events;
  opts.events = &events;
  DynamicBlockReport rep = solve_dynamic_block(op, b, y, opts);

  EXPECT_FALSE(rep.all_converged);
  ASSERT_EQ(rep.quarantined_columns.size(), n_rhs);
  for (std::size_t j = 0; j < n_rhs; ++j)
    EXPECT_EQ(rep.quarantined_columns[j], static_cast<long>(j));
  EXPECT_EQ(events.count(obs::events::kColumnQuarantine), n_rhs);
  // Every column was attempted and recorded despite the persistent fault.
  long covered = 0;
  for (const ChunkRecord& c : rep.chunks) covered += c.n_rhs;
  EXPECT_EQ(covered, static_cast<long>(n_rhs));
  EXPECT_GT(rep.total_matvec_columns, 0);
  EXPECT_TRUE(block_finite(y));
}

}  // namespace
}  // namespace rsrpa::solver

// ---------------------------------------------------------------------------
// End-to-end drills: an injected fault at one quadrature point degrades
// the run — finite energy, flagged point — and never aborts it.

namespace rsrpa {
namespace {

class FaultDrillTest : public ::testing::Test {
 protected:
  static rpa::BuiltSystem& built() {
    static rpa::BuiltSystem b = [] {
      rpa::SystemPreset p = rpa::make_si_preset(1, false);
      p.grid_per_cell = 7;
      p.n_eig_per_atom = 2;  // n_eig = 16
      p.fd_radius = 3;
      return rpa::build_system(p);
    }();
    return b;
  }

  static rpa::RpaOptions base_options() {
    rpa::RpaOptions opts = built().default_rpa_options();
    opts.n_eig = 16;
    opts.ell = 3;
    opts.tol_eig = {4e-3, 2e-3, 2e-3};
    return opts;
  }

  // Persistent zero-matvec fault pinned to quadrature point 0, orbital 0:
  // every Sternheimer solve for that orbital at that point quarantines.
  static void add_point_fault(rpa::RpaOptions& opts) {
    opts.stern.fault.mode = solver::FaultMode::kZeroMatvec;
    opts.stern.fault.at_apply = 0;
    opts.stern.fault.period = 1;
    opts.stern.fault.max_faults = 1 << 30;
    opts.stern.fault.orbital = 0;
    opts.stern.fault.omega = 0;
  }
};

TEST_F(FaultDrillTest, RunRpaSurvivesAFaultyQuadraturePoint) {
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  add_point_fault(opts);

  rpa::RpaResult res = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  EXPECT_TRUE(std::isfinite(res.e_rpa));
  EXPECT_LT(res.e_rpa, 0.0);
  EXPECT_TRUE(res.degraded);
  EXPECT_FALSE(res.converged);
  ASSERT_EQ(res.per_omega.size(), 3u);
  EXPECT_GT(res.per_omega[0].quarantined_columns, 0);
  EXPECT_FALSE(res.per_omega[0].converged);
  // The fault is pinned to point 0: the other points stay clean.
  EXPECT_EQ(res.per_omega[1].quarantined_columns, 0);
  EXPECT_EQ(res.per_omega[2].quarantined_columns, 0);
  EXPECT_GE(res.events.count(obs::events::kQuadPointDegraded), 1u);
  EXPECT_GT(res.stern.quarantined_columns, 0);
}

TEST_F(FaultDrillTest, RunParallelRpaSurvivesAFaultyQuadraturePoint) {
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  add_point_fault(opts);

  const rpa::RpaResult res = par::run_ranked(b.ks, *b.klap, opts, 2).result;

  EXPECT_TRUE(std::isfinite(res.e_rpa));
  EXPECT_TRUE(res.degraded);
  ASSERT_EQ(res.per_omega.size(), 3u);
  EXPECT_GT(res.per_omega[0].quarantined_columns, 0);
  EXPECT_EQ(res.per_omega[1].quarantined_columns, 0);
  EXPECT_GE(res.events.count(obs::events::kQuadPointDegraded), 1u);
}

TEST_F(FaultDrillTest, QuarantinedColumnsAreReseededBeforeTheNextPoint) {
  // Warm-start decontamination: point 0's quarantined V columns hold
  // whatever the ladder froze them at; the driver must re-randomize them
  // before point 1, so the poisoned omega never contaminates downstream
  // records. Fixed blocking keeps the run deterministic.
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  opts.stern.dynamic_block = false;
  opts.stern.fixed_block = 4;
  add_point_fault(opts);

  rpa::RpaResult res = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  ASSERT_EQ(res.per_omega.size(), 3u);
  const std::vector<long>& idx = res.per_omega[0].quarantined_column_indices;
  ASSERT_FALSE(idx.empty());
  EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
  EXPECT_TRUE(std::adjacent_find(idx.begin(), idx.end()) == idx.end());
  for (long c : idx) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, static_cast<long>(opts.n_eig));
  }
  // The raw count can exceed the distinct-column count (the same column
  // can quarantine for several occupied orbitals).
  EXPECT_GE(res.per_omega[0].quarantined_columns,
            static_cast<long>(idx.size()));
  EXPECT_GE(res.events.count(obs::events::kWarmStartReseed), 1u);
  // Downstream of the reseed the run is clean: no quarantines, converged
  // subspaces, no reseed events for the later points.
  EXPECT_EQ(res.per_omega[1].quarantined_columns, 0);
  EXPECT_EQ(res.per_omega[2].quarantined_columns, 0);
  EXPECT_TRUE(res.per_omega[1].converged);
  EXPECT_TRUE(res.per_omega[2].converged);
  EXPECT_EQ(res.events.count(obs::events::kWarmStartReseed), 1u);
}

TEST_F(FaultDrillTest, MidSweepFaultOmegaArmsExactlyOnePoint) {
  // Regression for the per-point fault toggle: arming the middle point
  // exercises disarm -> arm -> disarm across the sweep (the scope guard
  // owns the mutation now), and the reseed keeps point 2 clean.
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  opts.stern.dynamic_block = false;
  opts.stern.fixed_block = 4;
  add_point_fault(opts);
  opts.stern.fault.omega = 1;

  rpa::RpaResult res = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  ASSERT_EQ(res.per_omega.size(), 3u);
  EXPECT_EQ(res.per_omega[0].quarantined_columns, 0);
  EXPECT_GT(res.per_omega[1].quarantined_columns, 0);
  EXPECT_EQ(res.per_omega[2].quarantined_columns, 0);
  EXPECT_TRUE(res.per_omega[2].converged);
}

TEST_F(FaultDrillTest, GmresRescuesEveryColumnThatReachesRungThree) {
  // Rung 3 on the real Sternheimer operator. With single-column chunks a
  // NaN fault that refires on the restart leaves deflation nothing to
  // split, so each faulted column goes restart -> GMRES, and GMRES must
  // converge it: the run stays clean and close to the unfaulted energy.
  // The fault sits on the top occupied orbital, whose shifted systems are
  // the most nearly singular. A rescued solve is only as close to the
  // clean one as TOL_STERN_RES (1e-2) makes it, so faulting every orbital
  // moves E_RPA by ~2e-5 relative, with any rung-3 solver.
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  opts.stern.dynamic_block = false;
  opts.stern.fixed_block = 1;
  const rpa::RpaResult clean = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  opts.stern.fault.mode = solver::FaultMode::kNanMatvec;
  opts.stern.fault.period = 1;
  opts.stern.fault.max_faults = 2;
  opts.stern.fault.orbital = static_cast<int>(b.ks.n_occ()) - 1;
  const rpa::RpaResult res = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  EXPECT_GT(res.stern.restarts, 0);
  EXPECT_EQ(res.stern.solver_swaps, res.stern.restarts);
  EXPECT_EQ(res.stern.quarantined_columns, 0);
  EXPECT_EQ(res.events.count(obs::events::kColumnQuarantine), 0u);
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.degraded);
  EXPECT_NEAR(res.e_rpa, clean.e_rpa, 1e-5 * std::abs(clean.e_rpa));
}

TEST_F(FaultDrillTest, SlqReportsQuarantinedColumns) {
  // SLQ runs the same ladder-protected Sternheimer solves: a quarantined
  // column feeds the Lanczos recurrence its entry guess, so the point must
  // come out degraded, never silently converged.
  auto& b = built();
  rpa::SlqRpaOptions opts;
  opts.ell = 2;
  opts.n_probes = 2;
  opts.lanczos_steps = 4;
  const rpa::RpaResult clean = rpa::compute_rpa_energy_slq(b.ks, *b.klap, opts);
  EXPECT_TRUE(clean.converged);
  EXPECT_FALSE(clean.degraded);
  EXPECT_EQ(clean.events.count(obs::events::kColumnQuarantine), 0u);

  rpa::RpaOptions faulted = base_options();
  add_point_fault(faulted);
  opts.stern.fault = faulted.stern.fault;
  opts.stern.fault.omega = -1;  // every point
  const rpa::RpaResult res = rpa::compute_rpa_energy_slq(b.ks, *b.klap, opts);

  EXPECT_TRUE(std::isfinite(res.e_rpa));
  EXPECT_TRUE(res.degraded);
  EXPECT_FALSE(res.converged);
  ASSERT_EQ(res.per_omega.size(), 2u);
  for (const rpa::OmegaRecord& rec : res.per_omega) {
    EXPECT_GT(rec.quarantined_columns, 0);
    EXPECT_FALSE(rec.converged);
  }
  EXPECT_EQ(res.events.count(obs::events::kQuadPointDegraded), 2u);
  EXPECT_GE(res.events.count(obs::events::kColumnQuarantine), 1u);

  // FAULT_OMEGA targets one point: point 0 stays clean and matches the
  // clean run bit for bit, point 1 degrades.
  opts.stern.fault.omega = 1;
  const rpa::RpaResult one =
      rpa::compute_rpa_energy_slq(b.ks, *b.klap, opts);
  ASSERT_EQ(one.per_omega.size(), 2u);
  EXPECT_EQ(one.per_omega[0].quarantined_columns, 0);
  EXPECT_TRUE(one.per_omega[0].converged);
  EXPECT_EQ(one.per_omega[0].e_term, clean.per_omega[0].e_term);
  EXPECT_GT(one.per_omega[1].quarantined_columns, 0);
  EXPECT_FALSE(one.per_omega[1].converged);
  EXPECT_TRUE(one.degraded);
  EXPECT_EQ(one.events.count(obs::events::kQuadPointDegraded), 1u);
}

TEST_F(FaultDrillTest, LadderIsBitwiseInvisibleOnCleanRuns) {
  // With injection off and no breakdown, the ladder's bookkeeping wraps
  // the same arithmetic in the same order: enabling it must not move the
  // energy by even one ulp. Algorithm 4's block-size probe keys off wall
  // time, so fix the blocking to make the two runs comparable at all.
  auto& b = built();
  // The bare block COCG path (enabled = false) is the reference.
  rpa::RpaOptions on = base_options(), off = base_options();
  on.stern.dynamic_block = false;
  off.stern.dynamic_block = false;
  on.stern.fixed_block = 4;
  off.stern.fixed_block = 4;
  on.stern.resilience.enabled = true;
  off.stern.resilience.enabled = false;

  rpa::RpaResult r_on = rpa::compute_rpa_energy(b.ks, *b.klap, on);
  rpa::RpaResult r_off = rpa::compute_rpa_energy(b.ks, *b.klap, off);

  EXPECT_TRUE(r_on.converged);
  EXPECT_FALSE(r_on.degraded);
  EXPECT_EQ(r_on.e_rpa, r_off.e_rpa);
  for (std::size_t k = 0; k < r_on.per_omega.size(); ++k)
    EXPECT_EQ(r_on.per_omega[k].e_term, r_off.per_omega[k].e_term) << k;
}

}  // namespace
}  // namespace rsrpa
