// Cross-module property tests: parameterized sweeps over shapes, radii,
// spectra and orders that complement the per-module unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "grid/stencil.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"
#include "poisson/kronecker.hpp"
#include "rpa/erpa.hpp"
#include "rpa/presets.hpp"
#include "rpa/quadrature.hpp"
#include "solver/block_cocg.hpp"
#include "solver/chebyshev.hpp"
#include "support/ranked.hpp"

namespace rsrpa {
namespace {

using la::cplx;
using la::Matrix;

// ---------- GEMM shape sweep ----------

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, AllVariantsMatchNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 100 + n));
  Matrix<double> a(static_cast<std::size_t>(m), static_cast<std::size_t>(k));
  Matrix<double> b(static_cast<std::size_t>(k), static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < a.cols(); ++j) rng.fill_uniform(a.col(j));
  for (std::size_t j = 0; j < b.cols(); ++j) rng.fill_uniform(b.col(j));

  // gemm_nn against the naive triple loop.
  Matrix<double> c(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  la::gemm_nn(1.0, a, b, 0.0, c);
  for (std::size_t j = 0; j < c.cols(); ++j)
    for (std::size_t i = 0; i < c.rows(); ++i) {
      double ref = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) ref += a(i, p) * b(p, j);
      ASSERT_NEAR(c(i, j), ref, 1e-11 * (1.0 + std::abs(ref)));
    }

  // gemm_tn(A, B2) against gemm_nn(A^T, B2) with B2 sized to A's rows.
  Matrix<double> b2(a.rows(), 3);
  for (std::size_t j = 0; j < 3; ++j) rng.fill_uniform(b2.col(j));
  Matrix<double> c2(a.cols(), 3), ref2(a.cols(), 3);
  la::gemm_tn(1.0, a, b2, 0.0, c2);
  Matrix<double> at = a.transposed();
  la::gemm_nn(1.0, at, b2, 0.0, ref2);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < c2.rows(); ++i)
      ASSERT_NEAR(c2(i, j), ref2(i, j), 1e-11 * (1.0 + std::abs(ref2(i, j))));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 3),
                      std::make_tuple(8, 1, 8), std::make_tuple(13, 13, 13),
                      std::make_tuple(64, 3, 2), std::make_tuple(3, 64, 2),
                      std::make_tuple(2, 3, 64), std::make_tuple(65, 33, 17)));

// ---------- Eigensolver on structured spectra ----------

class EigSpectra : public ::testing::TestWithParam<int> {};

TEST_P(EigSpectra, RecoversPlantedSpectrum) {
  // Build A = Q diag(d) Q^T with a planted spectrum (clustered, degenerate
  // or spread depending on the case) and check recovery.
  const int kind = GetParam();
  const std::size_t n = 30;
  Rng rng(static_cast<std::uint64_t>(77 + kind));
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case 0: d[i] = static_cast<double>(i);  // well separated
        break;
      case 1: d[i] = (i < n / 2) ? 1.0 : 2.0;  // two degenerate clusters
        break;
      case 2: d[i] = 1.0 + 1e-8 * static_cast<double>(i);  // near degenerate
        break;
      default: d[i] = std::pow(10.0, -static_cast<double>(i) / 4.0);  // decaying
    }
  }
  Matrix<double> q(n, n);
  for (std::size_t j = 0; j < n; ++j) rng.fill_uniform(q.col(j));
  la::orthonormalize(q);
  Matrix<double> qd = q;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) qd(i, j) *= d[j];
  Matrix<double> qt = q.transposed();
  Matrix<double> a(n, n);
  la::gemm_nn(1.0, qd, qt, 0.0, a);

  std::vector<double> got = la::sym_eigvals(a);
  std::sort(d.begin(), d.end());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(got[i], d[i], 1e-9 * (1.0 + std::abs(d[i]))) << "kind " << kind;
}

INSTANTIATE_TEST_SUITE_P(Kinds, EigSpectra, ::testing::Values(0, 1, 2, 3));

// ---------- Stencil vs Kronecker across radii and anisotropy ----------

class StencilKronecker
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StencilKronecker, AgreeOnRandomFunctions) {
  const auto [radius, shape] = GetParam();
  const grid::Grid3D g = (shape == 0)
                             ? grid::Grid3D(6, 6, 6, 3.0, 3.0, 3.0)
                             : grid::Grid3D(5, 7, 9, 2.0, 3.5, 5.4);
  grid::StencilLaplacian lap(g, radius);
  poisson::KroneckerLaplacian klap(g, radius);
  Rng rng(static_cast<std::uint64_t>(radius * 10 + shape));
  std::vector<double> v(g.size()), a(g.size()), b(g.size());
  rng.fill_uniform(v);
  lap.apply<double>(v, a);
  klap.apply_laplacian(v, b);
  for (std::size_t i = 0; i < g.size(); ++i)
    ASSERT_NEAR(a[i], b[i], 1e-8 * (1.0 + std::abs(a[i])));
}

INSTANTIATE_TEST_SUITE_P(RadiiShapes, StencilKronecker,
                         ::testing::Combine(::testing::Values(1, 2, 4, 6),
                                            ::testing::Values(0, 1)));

// ---------- Quadrature order sweep ----------

class QuadratureOrder : public ::testing::TestWithParam<int> {};

TEST_P(QuadratureOrder, ConvergesOnSmoothSemiInfiniteIntegral) {
  // int_0^inf omega / (1 + omega^2)^2 domega = 1/2.
  const int ell = GetParam();
  const auto pts = rpa::rpa_frequency_quadrature(ell);
  double integral = 0.0;
  for (const auto& p : pts) {
    const double d = 1.0 + p.omega * p.omega;
    integral += p.weight * p.omega / (d * d);
  }
  // Error shrinks with order; assert a generous order-dependent band.
  const double tol = ell >= 16 ? 2e-4 : (ell >= 8 ? 4e-3 : 6e-2);
  EXPECT_NEAR(integral, 0.5, tol) << "ell = " << ell;
}

INSTANTIATE_TEST_SUITE_P(Orders, QuadratureOrder,
                         ::testing::Values(4, 8, 16, 24));

// ---------- Chebyshev filter degree sweep ----------

class FilterDegree : public ::testing::TestWithParam<int> {};

TEST_P(FilterDegree, DampsUnwantedIntervalByChebyshevBound) {
  // Diagonal operator: components inside [a, b] must shrink relative to
  // the amplified wanted component by at least the Chebyshev growth.
  const int degree = GetParam();
  const std::size_t n = 64;
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i)
    d[i] = -2.0 + 2.0 * static_cast<double>(i) / (n - 1);  // [-2, 0]
  solver::BlockOpR op = [&d](const Matrix<double>& in, Matrix<double>& out) {
    for (std::size_t j = 0; j < in.cols(); ++j)
      for (std::size_t i = 0; i < in.rows(); ++i)
        out(i, j) = d[i] * in(i, j);
  };
  Matrix<double> v(n, 1);
  v.fill(1.0);  // equal weight on every eigencomponent
  const double a = -0.5, b = 0.0, a0 = -2.0;
  solver::chebyshev_filter_op(op, v, degree, a, b, a0);

  // Inside the damped interval the filtered magnitude is bounded by the
  // (normalized) Chebyshev value at the wanted edge.
  double damped_max = 0.0, wanted = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i] >= a)
      damped_max = std::max(damped_max, std::abs(v(i, 0)));
    if (std::abs(d[i] - a0) < 0.05) wanted = std::abs(v(i, 0));
  }
  EXPECT_GT(wanted, damped_max) << "degree " << degree;
  if (degree >= 4) EXPECT_GT(wanted, 5.0 * damped_max);
}

INSTANTIATE_TEST_SUITE_P(Degrees, FilterDegree, ::testing::Values(1, 2, 4, 8));

// ---------- Block COCG across spectrum difficulty ----------

class CocgDifficulty : public ::testing::TestWithParam<double> {};

TEST_P(CocgDifficulty, IterationsGrowAsShiftShrinks) {
  // Diagonal indefinite operator with imaginary shift omega: smaller
  // omega means a nearer-singular system and more iterations — the (j,k)
  // difficulty gradient of paper SS III-B.
  const double omega = GetParam();
  const std::size_t n = 200;
  Matrix<cplx> a(n, n);
  Rng rng(31);
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) = cplx{-0.5 + 3.0 * static_cast<double>(i) / (n - 1), omega};
  solver::BlockOpC op = [&a](const Matrix<cplx>& in, Matrix<cplx>& out) {
    la::gemm_nn(cplx{1}, a, in, cplx{0}, out);
  };
  Matrix<cplx> b(n, 2), y(n, 2);
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < n; ++i)
      b(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  solver::SolverOptions opts;
  opts.tol = 1e-8;
  opts.max_iter = 20000;
  solver::SolveReport rep = solver::block_cocg(op, b, y, opts);
  EXPECT_TRUE(rep.converged);

  // Store iterations in a static map keyed by omega for the cross-check.
  static std::map<double, int> iters;
  iters[omega] = rep.iterations;
  if (iters.size() == 3) {
    EXPECT_GE(iters[0.02], iters[0.31]);
    EXPECT_GE(iters[0.31], iters[8.8]);
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, CocgDifficulty,
                         ::testing::Values(8.8, 0.31, 0.02));

// ---------- LU pivot ratio tracks conditioning ----------

class LuConditioning : public ::testing::TestWithParam<double> {};

TEST_P(LuConditioning, SolveErrorScalesWithCondition) {
  const double cond = GetParam();
  const std::size_t n = 24;
  Rng rng(41);
  Matrix<double> q(n, n);
  for (std::size_t j = 0; j < n; ++j) rng.fill_uniform(q.col(j));
  la::orthonormalize(q);
  // A = Q D Q^T with condition number `cond`.
  Matrix<double> qd = q;
  for (std::size_t j = 0; j < n; ++j) {
    const double s =
        std::pow(cond, -static_cast<double>(j) / (n - 1));  // 1 .. 1/cond
    for (std::size_t i = 0; i < n; ++i) qd(i, j) *= s;
  }
  Matrix<double> a(n, n), qt = q.transposed();
  la::gemm_nn(1.0, qd, qt, 0.0, a);

  std::vector<double> x(n), b(n, 0.0);
  rng.fill_uniform(x);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) b[i] += a(i, j) * x[j];
  la::Lu<double> lu(a);
  lu.solve_inplace(b);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) err = std::max(err, std::abs(b[i] - x[i]));
  // Forward error bounded by condition * machine epsilon * safety.
  EXPECT_LT(err, cond * 1e-12);
  // Pivot ratio is a (loose) witness of the conditioning.
  EXPECT_LT(lu.pivot_ratio(), 1.0);
  EXPECT_GT(lu.pivot_ratio(), 1e-6 / cond);
}

INSTANTIATE_TEST_SUITE_P(Conditions, LuConditioning,
                         ::testing::Values(1e1, 1e4, 1e7));

// ---------- Serial vs ranked driver ----------

// With one column per Sternheimer solve, the column partition only decides
// which task applies which column: E_RPA and every Ritz value of a run on
// p simulated ranks are bitwise those of the plain driver. Each seed draws
// n_eig, p in [1, n_eig] and the SSA freeze point (0 = off, or 2 with a
// guard loose enough that the frozen point elides).
TEST(ParallelRpaTest, MatchesSerialDriverEnergy) {
  rpa::SystemPreset preset = rpa::make_si_preset(1, false);
  preset.grid_per_cell = 6;
  preset.n_eig_per_atom = 2;
  preset.fd_radius = 2;
  const rpa::BuiltSystem b = rpa::build_system(preset);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    rpa::RpaOptions opts = b.default_rpa_options();
    opts.n_eig = 2 + rng.index(15);  // [2, 16]
    opts.ell = 3;
    opts.tol_eig = {4e-3, 2e-3, 2e-3};
    opts.stern.dynamic_block = false;
    opts.stern.fixed_block = 1;
    opts.ssa.freeze_after = rng.index(2) == 0 ? 0 : 2;
    opts.ssa.residual_tol = 0.1;
    const std::size_t p = 1 + rng.index(opts.n_eig);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": n_eig " +
                 std::to_string(opts.n_eig) + ", p " + std::to_string(p) +
                 ", freeze_after " + std::to_string(opts.ssa.freeze_after));

    const rpa::RpaResult serial = rpa::compute_rpa_energy(b.ks, *b.klap, opts);
    const rpa::RpaResult ranked =
        par::run_ranked(b.ks, *b.klap, opts, p).result;
    EXPECT_EQ(serial.e_rpa, ranked.e_rpa);
    ASSERT_EQ(serial.per_omega.size(), ranked.per_omega.size());
    for (std::size_t k = 0; k < serial.per_omega.size(); ++k)
      EXPECT_EQ(serial.per_omega[k].eigenvalues,
                ranked.per_omega[k].eigenvalues)
          << "omega " << k;
    if (opts.ssa.freeze_after > 0) {
      EXPECT_TRUE(ranked.per_omega[2].elided);
    }
  }
}

}  // namespace
}  // namespace rsrpa
