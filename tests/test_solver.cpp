// Tests for the Krylov solver stack: block COCG (Algorithm 3), COCG,
// COCR, GMRES, the Galerkin initial guess (Eq. 13), dynamic block size
// selection (Algorithm 4), and the split inverse-Laplacian preconditioner.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "common/rng.hpp"
#include "dft/ks_system.hpp"
#include "la/blas.hpp"
#include "la/lu.hpp"
#include "obs/event_log.hpp"
#include "solver/block_cocg.hpp"
#include "solver/dynamic_block.hpp"
#include "solver/galerkin_guess.hpp"
#include "solver/gmres.hpp"
#include "support/cocr.hpp"
#include "support/preconditioner.hpp"
#include "support/seed_projection.hpp"

namespace rsrpa::solver {
namespace {

using la::cplx;
using la::Matrix;

// Random complex-symmetric matrix with a diagonal shift controlling the
// conditioning — mirrors the Sternheimer structure (H - lambda + i omega).
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

TEST(BlockCocg, SolvesDenseComplexSymmetricSystem) {
  Rng rng(1);
  const std::size_t n = 40, s = 4;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, s, rng);
  Matrix<cplx> y(n, s);
  SolverOptions opts;
  opts.tol = 1e-12;
  SolveReport rep = block_cocg(dense_op(a), b, y, opts);
  EXPECT_TRUE(rep.converged);
  Matrix<cplx> x_ref = la::lu_solve(a, b);
  EXPECT_LT(block_error(y, x_ref), 1e-9);
}

TEST(BlockCocg, RespectsInitialGuess) {
  Rng rng(2);
  const std::size_t n = 30, s = 2;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{6.0, 1.0});
  Matrix<cplx> b = random_cblock(n, s, rng);
  // Exact solution as the initial guess: zero iterations needed.
  Matrix<cplx> y = la::lu_solve(a, b);
  SolveReport rep = block_cocg(dense_op(a), b, y);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.iterations, 0);
}

TEST(BlockCocg, ZeroRhsGivesZeroSolution) {
  Rng rng(3);
  Matrix<cplx> a = random_complex_symmetric(10, rng, cplx{4.0, 1.0});
  Matrix<cplx> b(10, 2);
  Matrix<cplx> y = random_cblock(10, 2, rng);
  SolveReport rep = block_cocg(dense_op(a), b, y);
  EXPECT_TRUE(rep.converged);
  EXPECT_DOUBLE_EQ(la::norm_fro(y), 0.0);
}

TEST(BlockCocg, DuplicateColumnsBreakDown) {
  Rng rng(4);
  const std::size_t n = 25;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{5.0, 1.0});
  Matrix<cplx> b = random_cblock(n, 2, rng);
  for (std::size_t i = 0; i < n; ++i) b(i, 1) = b(i, 0);  // rank-1 block
  Matrix<cplx> y(n, 2);
  EXPECT_THROW(block_cocg(dense_op(a), b, y), NumericalBreakdown);
}

TEST(BlockCocg, MatchesNonBlockCocgForSingleRhs) {
  Rng rng(5);
  const std::size_t n = 35;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{7.0, 1.5});
  Matrix<cplx> b = random_cblock(n, 1, rng);
  Matrix<cplx> y_block(n, 1);
  SolverOptions opts;
  opts.tol = 1e-11;
  SolveReport rb = block_cocg(dense_op(a), b, y_block, opts);

  std::vector<cplx> bb(n), yy(n, cplx{});
  for (std::size_t i = 0; i < n; ++i) bb[i] = b(i, 0);
  SolveReport rs = cocg(dense_op(a), bb, yy, opts);

  EXPECT_TRUE(rb.converged);
  EXPECT_TRUE(rs.converged);
  EXPECT_EQ(rb.iterations, rs.iterations);  // identical recurrence at s=1
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(y_block(i, 0) - yy[i]), 0.0, 1e-8);
}

TEST(BlockCocg, SingleRhsHistoryAndMatvecsMatchCocg) {
  // At s = 1 the block recurrence degenerates to the scalar one, so the
  // two independent implementations must agree step by step: identical
  // residual histories and identical operator-application counts.
  Rng rng(21);
  const std::size_t n = 35;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{7.0, 1.5});
  Matrix<cplx> b = random_cblock(n, 1, rng);
  SolverOptions opts;
  opts.tol = 1e-11;
  opts.record_history = true;

  Matrix<cplx> y_block(n, 1);
  SolveReport rb = block_cocg(dense_op(a), b, y_block, opts);

  std::vector<cplx> bb(n), yy(n, cplx{});
  for (std::size_t i = 0; i < n; ++i) bb[i] = b(i, 0);
  SolveReport rs = cocg(dense_op(a), bb, yy, opts);

  EXPECT_TRUE(rb.converged);
  EXPECT_TRUE(rs.converged);
  EXPECT_EQ(rb.matvec_columns, rs.matvec_columns);
  ASSERT_FALSE(rb.history.empty());
  ASSERT_EQ(rb.history.size(), rs.history.size());
  for (std::size_t k = 0; k < rb.history.size(); ++k)
    EXPECT_NEAR(rb.history[k], rs.history[k],
                1e-10 * std::max(1.0, rb.history[k]))
        << "histories diverge at iteration " << k;
}

TEST(Cocg, SuspectMuAloneDoesNotAbortAConvergingSolve) {
  // Regression: the scalar path used to throw the moment |mu| fell under
  // the breakdown floor, even when the step it guarded was fine. It now
  // mirrors the block path's take-the-step-then-decide probe. For this
  // seed the smallest conjugacy ratio |mu| / (|u||p|) of the whole solve,
  // 1.39e-2 at iteration 19, belongs to a step whose residual DECREASES —
  // so a floor of 1.5e-2 flags it (the old code aborted here) while the
  // probe lets the solve run to convergence. And since the probe only
  // observes, the iteration is bit-for-bit the one the default floor
  // produces.
  Rng rng(23);
  const std::size_t n = 35;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{7.0, 1.5});
  Matrix<cplx> b = random_cblock(n, 1, rng);
  std::vector<cplx> bb(n);
  for (std::size_t i = 0; i < n; ++i) bb[i] = b(i, 0);

  SolverOptions opts;
  opts.tol = 1e-11;
  opts.record_history = true;

  std::vector<cplx> y_ref(n, cplx{});
  SolveReport ref = cocg(dense_op(a), bb, y_ref, opts);
  ASSERT_TRUE(ref.converged);

  opts.breakdown_tol = 1.5e-2;
  std::vector<cplx> y(n, cplx{});
  SolveReport rep = cocg(dense_op(a), bb, y, opts);

  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.iterations, ref.iterations);
  ASSERT_EQ(rep.history.size(), ref.history.size());
  for (std::size_t k = 0; k < rep.history.size(); ++k)
    EXPECT_EQ(rep.history[k], ref.history[k]) << "iteration " << k;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(y[i], y_ref[i]) << "entry " << i;
}

TEST(Cocg, GenuineQuasiNullBreakdownStillThrows) {
  // A = diag(1, 1, 2), b = (1, i, 1): one step in, the residual becomes a
  // quasi-null vector (w^T w = 0, w != 0) and the scalar recurrence has
  // nowhere to go — the softened probe must still raise the breakdown.
  Matrix<cplx> a(3, 3);
  a(0, 0) = cplx{1.0, 0.0};
  a(1, 1) = cplx{1.0, 0.0};
  a(2, 2) = cplx{2.0, 0.0};
  std::vector<cplx> b = {cplx{1.0, 0.0}, cplx{0.0, 1.0}, cplx{1.0, 0.0}};
  std::vector<cplx> y(3, cplx{});
  SolverOptions opts;
  opts.tol = 1e-12;
  EXPECT_THROW(cocg(dense_op(a), b, y, opts), NumericalBreakdown);
}

TEST(BlockCocg, LargerBlocksNeedNoMoreIterations) {
  // O'Leary: block Krylov convergence (in iterations) improves — or at
  // least does not degrade — with block size on a hard indefinite system.
  Rng rng(6);
  const std::size_t n = 120;
  Matrix<cplx> a(n, n);
  // Diagonal complex-symmetric matrix with an indefinite, near-origin
  // spectrum: lambda_i in [-1, 4] plus a small imaginary shift.
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) = cplx{-1.0 + 5.0 * double(i) / double(n - 1), 0.05};
  Matrix<cplx> b = random_cblock(n, 8, rng);
  SolverOptions opts;
  opts.tol = 1e-8;
  opts.max_iter = 4000;

  int iters_s1 = 0;
  for (std::size_t j = 0; j < 8; ++j) {
    Matrix<cplx> b1 = b.slice_cols(j, 1);
    Matrix<cplx> y1(n, 1);
    SolveReport r = block_cocg(dense_op(a), b1, y1, opts);
    EXPECT_TRUE(r.converged);
    iters_s1 = std::max(iters_s1, r.iterations);
  }
  Matrix<cplx> y8(n, 8);
  SolveReport r8 = block_cocg(dense_op(a), b, y8, opts);
  EXPECT_TRUE(r8.converged);
  EXPECT_LE(r8.iterations, iters_s1);
}

TEST(BlockCocg, HistoryIsRecordedAndDecreasesOverall) {
  Rng rng(7);
  const std::size_t n = 40;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{9.0, 2.0});
  Matrix<cplx> b = random_cblock(n, 3, rng);
  Matrix<cplx> y(n, 3);
  SolverOptions opts;
  opts.record_history = true;
  opts.tol = 1e-10;
  SolveReport rep = block_cocg(dense_op(a), b, y, opts);
  ASSERT_GE(rep.history.size(), 2u);
  EXPECT_LT(rep.history.back(), rep.history.front());
  EXPECT_LE(rep.history.back(), opts.tol);
}

TEST(Cocg, SolvesShiftedHamiltonianSystem) {
  // The real use case: (H - lambda I + i omega I) y = b.
  Rng rng(8);
  ham::Crystal c = ham::make_silicon_chain(1, 0.0, rng);
  grid::Grid3D g = grid::Grid3D::cubic(9, ham::kSiLatticeConstant);
  ham::Hamiltonian h(g, 3, std::move(c), ham::ModelParams{});
  const double lambda = -0.5, omega = 0.7;
  BlockOpC op = [&](const Matrix<cplx>& in, Matrix<cplx>& out) {
    h.apply_shifted_block(in, out, lambda, omega);
  };
  const std::size_t n = g.size();
  std::vector<cplx> b(n), y(n, cplx{});
  for (auto& v : b) v = {rng.uniform(-1, 1), 0.0};
  SolverOptions opts;
  opts.tol = 1e-10;
  opts.max_iter = 3000;
  SolveReport rep = cocg(op, b, y, opts);
  EXPECT_TRUE(rep.converged);
  // Verify the residual directly.
  std::vector<cplx> ay(n);
  h.apply_shifted(y, ay, lambda, omega);
  double err = 0.0, bn = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err += std::norm(ay[i] - b[i]);
    bn += std::norm(b[i]);
  }
  EXPECT_LT(std::sqrt(err / bn), 1e-9);
}

TEST(Cocr, SolvesComplexSymmetricSystem) {
  Rng rng(9);
  const std::size_t n = 40;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{6.0, 1.0});
  Matrix<cplx> b1 = random_cblock(n, 1, rng);
  std::vector<cplx> b(n), y(n, cplx{});
  for (std::size_t i = 0; i < n; ++i) b[i] = b1(i, 0);
  SolverOptions opts;
  opts.tol = 1e-11;
  SolveReport rep = cocr(dense_op(a), b, y, opts);
  EXPECT_TRUE(rep.converged);
  Matrix<cplx> x_ref = la::lu_solve(a, b1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(y[i] - x_ref(i, 0)), 0.0, 1e-8);
}

TEST(Gmres, SolvesGeneralComplexSystem) {
  // GMRES requires no symmetry at all.
  Rng rng(10);
  const std::size_t n = 30;
  Matrix<cplx> a = random_cblock(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += cplx{7.0, 3.0};
  Matrix<cplx> b1 = random_cblock(n, 1, rng);
  std::vector<cplx> b(n), y(n, cplx{});
  for (std::size_t i = 0; i < n; ++i) b[i] = b1(i, 0);
  GmresOptions opts;
  opts.tol = 1e-11;
  SolveReport rep = gmres(dense_op(a), b, y, opts);
  EXPECT_TRUE(rep.converged);
  Matrix<cplx> x_ref = la::lu_solve(a, b1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(y[i] - x_ref(i, 0)), 0.0, 1e-8);
}

TEST(Gmres, RestartedConvergesOnHarderSystem) {
  Rng rng(11);
  const std::size_t n = 60;
  // Definite but slow enough that GMRES(10) must restart several times.
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{9.5, 1.0});
  Matrix<cplx> b1 = random_cblock(n, 1, rng);
  std::vector<cplx> b(n), y(n, cplx{});
  for (std::size_t i = 0; i < n; ++i) b[i] = b1(i, 0);
  GmresOptions opts;
  opts.restart = 10;  // force several restart cycles
  opts.max_iter = 2000;
  opts.tol = 1e-9;
  SolveReport rep = gmres(dense_op(a), b, y, opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(rep.iterations, 10);  // actually restarted
}

TEST(GalerkinGuess, ExactWhenRhsInOccupiedSpan) {
  // If B = Psi C, the projected guess solves A Y = B exactly.
  Rng rng(12);
  ham::Crystal c = ham::make_silicon_chain(1, 0.0, rng);
  grid::Grid3D g = grid::Grid3D::cubic(9, ham::kSiLatticeConstant);
  auto h = std::make_shared<ham::Hamiltonian>(g, 3, std::move(c),
                                              ham::ModelParams{});
  Rng rng2(13);
  dft::KsSystem sys = dft::make_ks_system(h, 8, dft::ChefsiOptions{}, rng2);

  const std::size_t n = g.size(), s = 3;
  Matrix<double> coef(8, s);
  for (std::size_t j = 0; j < s; ++j) rng.fill_uniform(coef.col(j));
  Matrix<double> b(n, s);
  la::gemm_nn(1.0, sys.orbitals, coef, 0.0, b);

  const double lambda = sys.eigenvalues[5], omega = 0.4;
  Matrix<cplx> y0 = galerkin_initial_guess(sys.orbitals, sys.eigenvalues,
                                           lambda, omega, b);
  Matrix<cplx> ay(n, s);
  h->apply_shifted_block(y0, ay, lambda, omega);
  double err = 0.0;
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i)
      err = std::max(err, std::abs(ay(i, j) - cplx{b(i, j), 0.0}));
  EXPECT_LT(err, 1e-5);
}

TEST(GalerkinGuess, ReducesInitialResidual) {
  Rng rng(14);
  ham::Crystal c = ham::make_silicon_chain(1, 0.0, rng);
  grid::Grid3D g = grid::Grid3D::cubic(9, ham::kSiLatticeConstant);
  auto h = std::make_shared<ham::Hamiltonian>(g, 3, std::move(c),
                                              ham::ModelParams{});
  Rng rng2(15);
  dft::KsSystem sys = dft::make_ks_system(h, 16, dft::ChefsiOptions{}, rng2);

  const std::size_t n = g.size(), s = 4;
  Matrix<double> b(n, s);
  for (std::size_t j = 0; j < s; ++j) rng.fill_uniform(b.col(j));
  // Hardest regime: lambda at the top of the occupied spectrum, omega small.
  const double lambda = sys.eigenvalues.back(), omega = 0.02;

  Matrix<cplx> y0 = galerkin_initial_guess(sys.orbitals, sys.eigenvalues,
                                           lambda, omega, b);
  Matrix<cplx> ay(n, s);
  h->apply_shifted_block(y0, ay, lambda, omega);
  double res_guess = 0.0, res_zero = 0.0;
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      res_guess += std::norm(cplx{b(i, j), 0.0} - ay(i, j));
      res_zero += std::norm(cplx{b(i, j), 0.0});
    }
  EXPECT_LT(res_guess, res_zero);
}

TEST(DynamicBlock, SolvesAllSystemsAndRecordsChunks) {
  Rng rng(16);
  const std::size_t n = 60, n_rhs = 13;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{6.0, 1.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);
  Matrix<cplx> y(n, n_rhs);
  DynamicBlockOptions opts;
  opts.solver.tol = 1e-10;
  DynamicBlockReport rep = solve_dynamic_block(dense_op(a), b, y, opts);
  EXPECT_TRUE(rep.all_converged);
  int total = 0;
  for (const ChunkRecord& cr : rep.chunks) total += cr.n_rhs;
  EXPECT_EQ(total, static_cast<int>(n_rhs));
  Matrix<cplx> x_ref = la::lu_solve(a, b);
  EXPECT_LT(block_error(y, x_ref), 1e-7);
}

TEST(DynamicBlock, RespectsMaxBlockCap) {
  Rng rng(17);
  const std::size_t n = 50, n_rhs = 16;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{5.0, 1.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);
  Matrix<cplx> y(n, n_rhs);
  DynamicBlockOptions opts;
  opts.max_block = 4;
  DynamicBlockReport rep = solve_dynamic_block(dense_op(a), b, y, opts);
  EXPECT_TRUE(rep.all_converged);
  for (const ChunkRecord& cr : rep.chunks) EXPECT_LE(cr.block_size, 4);
}

TEST(DynamicBlock, FixedModeUsesRequestedSize) {
  Rng rng(18);
  const std::size_t n = 40, n_rhs = 10;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{5.0, 1.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);
  Matrix<cplx> y(n, n_rhs);
  DynamicBlockOptions opts;
  opts.enabled = false;
  opts.fixed_block = 3;
  DynamicBlockReport rep = solve_dynamic_block(dense_op(a), b, y, opts);
  EXPECT_TRUE(rep.all_converged);
  // Chunks of 3 except a tail of 1: 3+3+3+1.
  ASSERT_EQ(rep.chunks.size(), 4u);
  EXPECT_EQ(rep.chunks[0].n_rhs, 3);
  EXPECT_EQ(rep.chunks[3].n_rhs, 1);
}

TEST(DynamicBlock, FallsBackOnDependentColumns) {
  Rng rng(19);
  const std::size_t n = 30;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{5.0, 1.0});
  Matrix<cplx> b = random_cblock(n, 4, rng);
  for (std::size_t i = 0; i < n; ++i) b(i, 3) = b(i, 2);  // duplicates
  Matrix<cplx> y(n, 4);
  DynamicBlockOptions opts;
  opts.enabled = false;
  opts.fixed_block = 4;
  obs::EventLog events;
  opts.events = &events;
  DynamicBlockReport rep = solve_dynamic_block(dense_op(a), b, y, opts);
  EXPECT_TRUE(rep.all_converged);
  ASSERT_EQ(rep.chunks.size(), 1u);
  EXPECT_TRUE(rep.chunks[0].fallback);
  // The recovery ladder deflates the rank-deficient 4-block twice: once
  // at the full block, once at the duplicate pair. The initial-residual
  // breakdown touches no state, so no restart is attempted, and the
  // surviving single columns converge without a solver swap.
  EXPECT_EQ(rep.chunks[0].deflations, 2);
  EXPECT_EQ(rep.chunks[0].restarts, 0);
  EXPECT_EQ(rep.chunks[0].solver_swaps, 0);
  EXPECT_EQ(rep.chunks[0].quarantined, 0);
  EXPECT_TRUE(rep.quarantined_columns.empty());
  // Each rung fires as a structured event carrying the chunk position and
  // size; the first deflation covers the whole 4-block.
  EXPECT_EQ(events.count(obs::events::kSolverBreakdown), 2u);
  ASSERT_EQ(events.count(obs::events::kBlockDeflation), 2u);
  const obs::Event* deflation = nullptr;
  for (const obs::Event& e : events.events())
    if (e.kind == obs::events::kBlockDeflation) {
      deflation = &e;
      break;
    }
  ASSERT_NE(deflation, nullptr);
  ASSERT_EQ(deflation->fields.size(), 2u);
  EXPECT_EQ(deflation->fields[0].first, "position");
  EXPECT_DOUBLE_EQ(deflation->fields[0].second, 0.0);
  EXPECT_EQ(deflation->fields[1].first, "block_size");
  EXPECT_DOUBLE_EQ(deflation->fields[1].second, 4.0);
  Matrix<cplx> x_ref = la::lu_solve(a, b);
  EXPECT_LT(block_error(y, x_ref), 1e-7);
}

TEST(DynamicBlock, ChunksRecordMatvecColumns) {
  Rng rng(22);
  const std::size_t n = 40, n_rhs = 6;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{6.0, 1.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);
  Matrix<cplx> y(n, n_rhs);
  DynamicBlockReport rep =
      solve_dynamic_block(dense_op(a), b, y, DynamicBlockOptions{});
  long sum = 0;
  for (const ChunkRecord& cr : rep.chunks) {
    EXPECT_GT(cr.matvec_columns, 0);
    sum += cr.matvec_columns;
  }
  EXPECT_EQ(sum, rep.total_matvec_columns);
}

TEST(DynamicBlock, BlockSizeCountsSumToChunks) {
  Rng rng(20);
  const std::size_t n = 40, n_rhs = 9;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{6.0, 2.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);
  Matrix<cplx> y(n, n_rhs);
  DynamicBlockReport rep =
      solve_dynamic_block(dense_op(a), b, y, DynamicBlockOptions{});
  int sum = 0;
  for (const auto& [size, count] : rep.block_size_counts()) sum += count;
  EXPECT_EQ(sum, static_cast<int>(rep.chunks.size()));
}

TEST(Preconditioner, SplitFormStaysComplexSymmetricAndConverges) {
  // Kinetic-dominated system: M = sigma0 - L/2 captures most of A, so the
  // preconditioned iteration should converge in fewer iterations.
  Rng rng(21);
  grid::Grid3D g = grid::Grid3D::cubic(8, 4.0);
  grid::StencilLaplacian lap(g, 2);
  poisson::KroneckerLaplacian klap(g, 2);
  const cplx zshift{0.4, 0.05};
  BlockOpC op = [&](const Matrix<cplx>& in, Matrix<cplx>& out) {
    lap.apply_block(in, out);
    for (std::size_t j = 0; j < in.cols(); ++j)
      for (std::size_t i = 0; i < in.rows(); ++i)
        out(i, j) = -0.5 * out(i, j) + zshift * in(i, j);
  };
  const std::size_t n = g.size();
  Matrix<cplx> b = random_cblock(n, 2, rng);
  SolverOptions opts;
  opts.tol = 1e-9;
  opts.max_iter = 5000;

  Matrix<cplx> y_plain(n, 2);
  SolveReport plain = block_cocg(op, b, y_plain, opts);
  ASSERT_TRUE(plain.converged);

  ShiftedLaplacianPrecond precond(klap, 0.4);
  Matrix<cplx> y_prec(n, 2);
  SolveReport prec = preconditioned_block_cocg(op, precond, b, y_prec, opts);
  ASSERT_TRUE(prec.converged);
  EXPECT_LT(prec.iterations, plain.iterations);
  EXPECT_LT(block_error(y_prec, y_plain), 1e-6);
}

TEST(SeedProjection, StoredBasisReproducesCocgIterates) {
  Rng rng(22);
  const std::size_t n = 40;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{7.0, 1.5});
  Matrix<cplx> b1 = random_cblock(n, 1, rng);
  std::vector<cplx> b(n), y_seed(n, cplx{}), y_plain(n, cplx{});
  for (std::size_t i = 0; i < n; ++i) b[i] = b1(i, 0);
  SolverOptions opts;
  opts.tol = 1e-11;
  SeedBasis basis;
  SolveReport rs = cocg_store_basis(dense_op(a), b, y_seed, basis, opts);
  SolveReport rp = cocg(dense_op(a), b, y_plain, opts);
  EXPECT_TRUE(rs.converged);
  EXPECT_EQ(rs.iterations, rp.iterations);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(y_seed[i] - y_plain[i]), 0.0, 1e-10);
  EXPECT_EQ(basis.directions.cols(), static_cast<std::size_t>(rs.iterations));
}

TEST(SeedProjection, DirectionsAreAConjugate) {
  Rng rng(23);
  const std::size_t n = 30;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{6.0, 1.0});
  Matrix<cplx> b1 = random_cblock(n, 1, rng);
  std::vector<cplx> b(n), y(n, cplx{});
  for (std::size_t i = 0; i < n; ++i) b[i] = b1(i, 0);
  SeedBasis basis;
  SolverOptions opts;
  opts.tol = 1e-12;
  cocg_store_basis(dense_op(a), b, y, basis, opts);

  const std::size_t k = basis.directions.cols();
  ASSERT_GE(k, 2u);
  Matrix<cplx> ap(n, k);
  la::gemm_nn(cplx{1}, a, basis.directions, cplx{0}, ap);
  Matrix<cplx> ptap(k, k);
  la::gemm_tn(cplx{1}, basis.directions, ap, cplx{0}, ptap);
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_NEAR(std::abs(ptap(j, j) - basis.mu[j]), 0.0,
                1e-8 * std::abs(basis.mu[j]));
    for (std::size_t i = 0; i < k; ++i) {
      if (i == j) continue;
      // Off-diagonal conjugacy decays with short recurrences; nearby
      // directions must be conjugate to near machine precision.
      if (i + 1 == j || j + 1 == i)
        EXPECT_LT(std::abs(ptap(i, j)), 1e-6 * std::abs(basis.mu[j]));
    }
  }
}

TEST(SeedProjection, ExactForRhsInSeedKrylovSpace) {
  // Seed with b; once COCG converges, the Krylov space contains A^{-1} b,
  // so projecting b itself must reproduce the solution.
  Rng rng(24);
  const std::size_t n = 25;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b1 = random_cblock(n, 1, rng);
  std::vector<cplx> b(n), y(n, cplx{});
  for (std::size_t i = 0; i < n; ++i) b[i] = b1(i, 0);
  SeedBasis basis;
  SolverOptions opts;
  opts.tol = 1e-13;
  cocg_store_basis(dense_op(a), b, y, basis, opts);

  Matrix<cplx> y0 = seed_project(basis, b1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(y0(i, 0) - y[i]), 0.0, 1e-7);
}

TEST(SeedProjection, GuessReducesResidualForRelatedRhs) {
  Rng rng(25);
  const std::size_t n = 35;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{6.0, 1.0});
  Matrix<cplx> b1 = random_cblock(n, 1, rng);
  std::vector<cplx> b(n), y(n, cplx{});
  for (std::size_t i = 0; i < n; ++i) b[i] = b1(i, 0);
  SeedBasis basis;
  SolverOptions opts;
  opts.tol = 1e-12;
  cocg_store_basis(dense_op(a), b, y, basis, opts);

  // Related RHS: seed plus a small perturbation.
  Matrix<cplx> b2(n, 1);
  for (std::size_t i = 0; i < n; ++i)
    b2(i, 0) = b1(i, 0) + cplx{0.01 * rng.uniform(-1, 1), 0.0};
  Matrix<cplx> y0 = seed_project(basis, b2);
  Matrix<cplx> ay(n, 1);
  la::gemm_nn(cplx{1}, a, y0, cplx{0}, ay);
  double res = 0.0, bn = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    res += std::norm(b2(i, 0) - ay(i, 0));
    bn += std::norm(b2(i, 0));
  }
  EXPECT_LT(std::sqrt(res / bn), 0.1);  // far below the zero-guess 1.0
}

}  // namespace
}  // namespace rsrpa::solver
