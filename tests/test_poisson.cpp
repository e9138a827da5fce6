// Tests for the Kronecker spectral Laplacian and the Poisson solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "grid/stencil.hpp"
#include "support/cg_poisson.hpp"
#include "poisson/kronecker.hpp"
#include "sched/thread_pool.hpp"

namespace rsrpa::poisson {
namespace {

using grid::Grid3D;
using grid::StencilLaplacian;

void fill_mean_free(Rng& rng, std::span<double> x) {
  rng.fill_uniform(x);
  double mean = std::accumulate(x.begin(), x.end(), 0.0) / double(x.size());
  for (double& v : x) v -= mean;
}

TEST(Kronecker, SpectralLaplacianMatchesStencil) {
  Grid3D g(6, 7, 8, 3.0, 3.5, 4.0);
  const int r = 3;
  StencilLaplacian lap(g, r);
  KroneckerLaplacian klap(g, r);
  Rng rng(41);
  std::vector<double> v(g.size()), a(g.size()), b(g.size());
  rng.fill_uniform(v);
  lap.apply<double>(v, a);
  klap.apply_laplacian(v, b);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
}

TEST(Kronecker, NuIsInverseOfNegLaplacianOverFourPi) {
  // nu(-L/(4 pi)) x = x for mean-free x.
  Grid3D g = Grid3D::cubic(8, 4.0);
  const int r = 2;
  StencilLaplacian lap(g, r);
  KroneckerLaplacian klap(g, r);
  Rng rng(42);
  std::vector<double> x(g.size()), lx(g.size()), rec(g.size());
  fill_mean_free(rng, x);
  lap.apply<double>(x, lx);
  for (double& v : lx) v *= -1.0 / (4.0 * M_PI);
  klap.apply_nu(lx, rec);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_NEAR(rec[i], x[i], 1e-8);
}

TEST(Kronecker, NuSqrtSquaresToNu) {
  Grid3D g = Grid3D::cubic(7, 3.5);
  KroneckerLaplacian klap(g, 4);
  Rng rng(43);
  std::vector<double> x(g.size()), once(g.size()), twice(g.size()),
      direct(g.size());
  rng.fill_uniform(x);
  klap.apply_nu_sqrt(x, once);
  klap.apply_nu_sqrt(once, twice);
  klap.apply_nu(x, direct);
  for (std::size_t i = 0; i < g.size(); ++i)
    EXPECT_NEAR(twice[i], direct[i], 1e-9);
}

TEST(Kronecker, NuInvSqrtInvertsNuSqrtOnMeanFree) {
  Grid3D g = Grid3D::cubic(6, 3.0);
  KroneckerLaplacian klap(g, 2);
  Rng rng(44);
  std::vector<double> x(g.size()), y(g.size()), rec(g.size());
  fill_mean_free(rng, x);
  klap.apply_nu_sqrt(x, y);
  klap.apply_nu_inv_sqrt(y, rec);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_NEAR(rec[i], x[i], 1e-9);
}

TEST(Kronecker, ZeroModeMapsToZero) {
  Grid3D g = Grid3D::cubic(5, 2.5);
  KroneckerLaplacian klap(g, 2);
  std::vector<double> ones(g.size(), 1.0), out(g.size());
  klap.apply_nu(ones, out);
  for (double v : out) EXPECT_NEAR(v, 0.0, 1e-10);
  klap.apply_nu_sqrt(ones, out);
  for (double v : out) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(Kronecker, NuIsPositiveOnMeanFreeFunctions) {
  Grid3D g = Grid3D::cubic(6, 3.0);
  KroneckerLaplacian klap(g, 3);
  Rng rng(45);
  for (int t = 0; t < 5; ++t) {
    std::vector<double> x(g.size()), nx(g.size());
    fill_mean_free(rng, x);
    klap.apply_nu(x, nx);
    double quad = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) quad += x[i] * nx[i];
    EXPECT_GT(quad, 0.0);
  }
}

TEST(Kronecker, SpectrumBoundsAreConsistent) {
  Grid3D g = Grid3D::cubic(9, 4.5);
  StencilLaplacian lap(g, 6);
  KroneckerLaplacian klap(g, 6);
  EXPECT_GT(klap.neg_laplacian_max(), 0.0);
  EXPECT_GT(klap.neg_laplacian_min_nonzero(), 0.0);
  EXPECT_LT(klap.neg_laplacian_min_nonzero(), klap.neg_laplacian_max());
  // The symbol-based stencil bound must bracket the Kronecker max.
  EXPECT_LE(klap.neg_laplacian_max(), -lap.min_eigenvalue_bound() + 1e-9);
}

TEST(Kronecker, BlockApplyMatchesVectorApply) {
  Grid3D g = Grid3D::cubic(6, 3.0);
  KroneckerLaplacian klap(g, 2);
  Rng rng(46);
  la::Matrix<double> v(g.size(), 3);
  for (std::size_t j = 0; j < 3; ++j) rng.fill_uniform(v.col(j));
  la::Matrix<double> ref = v;
  klap.apply_nu_sqrt_block(v);
  std::vector<double> out(g.size());
  for (std::size_t j = 0; j < 3; ++j) {
    klap.apply_nu_sqrt(ref.col(j), out);
    for (std::size_t i = 0; i < g.size(); ++i)
      EXPECT_NEAR(v(i, j), out[i], 1e-12);
  }
}

// A block apply at one and four lanes against its single-column apply,
// bit for bit, on the 729-point bench grid with enough columns to fork.
using BlockApply = void (KroneckerLaplacian::*)(la::Matrix<double>&) const;
using ColumnApply = void (KroneckerLaplacian::*)(std::span<const double>,
                                                 std::span<double>) const;
void expect_block_is_column_apply(BlockApply block, ColumnApply column) {
  Grid3D g = Grid3D::cubic(9, 4.5);
  KroneckerLaplacian klap(g, 4);
  Rng rng(48);
  la::Matrix<double> v(g.size(), 37);
  for (std::size_t j = 0; j < v.cols(); ++j) rng.fill_uniform(v.col(j));
  std::vector<double> out(g.size());
  for (int threads : {1, 4}) {
    sched::set_global_threads(threads);
    la::Matrix<double> b = v;
    (klap.*block)(b);
    for (std::size_t j = 0; j < v.cols(); ++j) {
      (klap.*column)(v.col(j), out);
      for (std::size_t i = 0; i < g.size(); ++i)
        ASSERT_EQ(b(i, j), out[i])
            << "threads=" << threads << " i=" << i << " j=" << j;
    }
  }
  sched::set_global_threads(0);
}

TEST(Kronecker, NuBlockOfNuAtOneAndFourLanes) {
  expect_block_is_column_apply(&KroneckerLaplacian::apply_nu_block,
                               &KroneckerLaplacian::apply_nu);
}

TEST(Kronecker, NuBlockOfNuSqrtAtOneAndFourLanes) {
  expect_block_is_column_apply(&KroneckerLaplacian::apply_nu_sqrt_block,
                               &KroneckerLaplacian::apply_nu_sqrt);
}

TEST(Kronecker, NuBlockOfNuInvSqrtAtOneAndFourLanes) {
  expect_block_is_column_apply(&KroneckerLaplacian::apply_nu_inv_sqrt_block,
                               &KroneckerLaplacian::apply_nu_inv_sqrt);
}

TEST(PoissonCg, AgreesWithSpectralSolver) {
  Grid3D g = Grid3D::cubic(10, 5.0);
  const int r = 4;
  StencilLaplacian lap(g, r);
  KroneckerLaplacian klap(g, r);
  Rng rng(47);
  std::vector<double> rho(g.size()), phi_cg(g.size()), phi_sp(g.size());
  fill_mean_free(rng, rho);
  PoissonCgReport rep = solve_poisson_cg(lap, rho, phi_cg, 1e-12);
  EXPECT_TRUE(rep.converged);
  klap.solve_poisson(rho, phi_sp);
  for (std::size_t i = 0; i < g.size(); ++i)
    EXPECT_NEAR(phi_cg[i], phi_sp[i], 1e-7);
}

TEST(PoissonCg, SolvesGaussianChargePair) {
  // A +/- Gaussian charge pair: check the residual of the PDE directly.
  Grid3D g = Grid3D::cubic(14, 7.0);
  StencilLaplacian lap(g, 4);
  std::vector<double> rho(g.size());
  const double s2 = 0.5;
  for (std::size_t iz = 0; iz < g.nz(); ++iz)
    for (std::size_t iy = 0; iy < g.ny(); ++iy)
      for (std::size_t ix = 0; ix < g.nx(); ++ix) {
        auto p = g.coords(ix, iy, iz);
        auto gauss = [&](double cx, double cy, double cz) {
          const double dx = Grid3D::min_image(p[0] - cx, g.lx());
          const double dy = Grid3D::min_image(p[1] - cy, g.ly());
          const double dz = Grid3D::min_image(p[2] - cz, g.lz());
          return std::exp(-(dx * dx + dy * dy + dz * dz) / (2 * s2));
        };
        rho[g.index(ix, iy, iz)] = gauss(1.75, 3.5, 3.5) - gauss(5.25, 3.5, 3.5);
      }
  std::vector<double> phi(g.size()), lphi(g.size());
  PoissonCgReport rep = solve_poisson_cg(lap, rho, phi, 1e-11);
  EXPECT_TRUE(rep.converged);
  lap.apply<double>(phi, lphi);
  // -L phi should reproduce 4 pi rho (rho here is already mean-free up to
  // symmetry; allow a loose absolute tolerance for the projected mean).
  double mean_rho = std::accumulate(rho.begin(), rho.end(), 0.0) / double(g.size());
  for (std::size_t i = 0; i < g.size(); ++i)
    EXPECT_NEAR(-lphi[i], 4 * M_PI * (rho[i] - mean_rho), 1e-6);
}

TEST(PoissonCg, ZeroDensityGivesZeroPotential) {
  Grid3D g = Grid3D::cubic(6, 3.0);
  StencilLaplacian lap(g, 2);
  std::vector<double> rho(g.size(), 0.0), phi(g.size(), 1.0);
  PoissonCgReport rep = solve_poisson_cg(lap, rho, phi);
  EXPECT_TRUE(rep.converged);
  for (double v : phi) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace rsrpa::poisson
