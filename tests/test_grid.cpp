// Tests for the grid substrate: FD coefficients, stencil Laplacian.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "grid/fd.hpp"
#include "grid/grid.hpp"
#include "grid/stencil.hpp"

namespace rsrpa::grid {
namespace {

TEST(Grid3D, IndexingAndSpacing) {
  Grid3D g(4, 5, 6, 8.0, 10.0, 12.0);
  EXPECT_EQ(g.size(), 120u);
  EXPECT_DOUBLE_EQ(g.hx(), 2.0);
  EXPECT_DOUBLE_EQ(g.hy(), 2.0);
  EXPECT_DOUBLE_EQ(g.hz(), 2.0);
  EXPECT_EQ(g.index(1, 2, 3), 1u + 4u * (2u + 5u * 3u));
  EXPECT_DOUBLE_EQ(g.dv(), 8.0);
}

TEST(Grid3D, MinImageWrapsIntoHalfCell) {
  EXPECT_DOUBLE_EQ(Grid3D::min_image(7.0, 10.0), -3.0);
  EXPECT_DOUBLE_EQ(Grid3D::min_image(-7.0, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(Grid3D::min_image(2.0, 10.0), 2.0);
}

TEST(FdCoefficients, RadiusOneIsClassicStencil) {
  const auto c = fd_coefficients(1);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_NEAR(c[0], -2.0, 1e-13);
  EXPECT_NEAR(c[1], 1.0, 1e-13);
}

TEST(FdCoefficients, RadiusTwoMatchesKnownValues) {
  const auto c = fd_coefficients(2);
  EXPECT_NEAR(c[0], -5.0 / 2.0, 1e-12);
  EXPECT_NEAR(c[1], 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(c[2], -1.0 / 12.0, 1e-12);
}

TEST(FdCoefficients, RadiusSixMatchesKnownLeadingValues) {
  const auto c = fd_coefficients(6);
  // Known coefficients of the order-12 central second-derivative stencil.
  EXPECT_NEAR(c[0], -5369.0 / 1800.0, 1e-10);
  EXPECT_NEAR(c[1], 12.0 / 7.0, 1e-10);
  EXPECT_NEAR(c[6], -1.0 / 16632.0, 1e-12);  // signs alternate with k
}

class FdExactness : public ::testing::TestWithParam<int> {};

TEST_P(FdExactness, DifferentiatesPolynomialsExactly) {
  const int r = GetParam();
  const auto c = fd_coefficients(r);
  // The stencil must be exact on x^{2m} for m <= r at x = 0.
  for (int m = 0; m <= r; ++m) {
    double stencil = (m == 0) ? c[0] : 0.0;
    double scale = (m == 0) ? std::abs(c[0]) : 0.0;
    for (int k = 1; k <= r; ++k) {
      const double term = 2.0 * c[k] * std::pow(static_cast<double>(k), 2.0 * m);
      stencil += term;
      scale += std::abs(term);
    }
    const double expected = (m == 1) ? 2.0 : 0.0;
    // Relative to the moment-sum magnitude: the terms grow like r^{2m}, so
    // an absolute tolerance would be meaningless at large radii.
    EXPECT_NEAR(stencil, expected, 1e-12 * std::max(scale, 1.0)) << "m=" << m;
  }
}

TEST_P(FdExactness, SymbolIsNonPositive) {
  const int r = GetParam();
  const auto c = fd_coefficients(r);
  for (int i = 0; i <= 256; ++i) {
    const double theta = M_PI * i / 256.0;
    EXPECT_LE(fd_symbol(c, theta), 1e-12) << "theta=" << theta;
  }
  EXPECT_NEAR(fd_symbol(c, 0.0), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Radii, FdExactness, ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(StencilLaplacian, ExactOnPlaneWaves) {
  // Periodic plane waves are exact eigenfunctions of the FD Laplacian with
  // eigenvalue given by the symbol.
  const std::size_t n = 12;
  const double l = 6.0;
  Grid3D g = Grid3D::cubic(n, l);
  const int r = 4;
  StencilLaplacian lap(g, r);
  const auto c = fd_coefficients(r);
  const double h = g.hx();

  const int kx = 2, ky = 3, kz = 1;
  std::vector<double> v(g.size()), lv(g.size());
  for (std::size_t iz = 0; iz < n; ++iz)
    for (std::size_t iy = 0; iy < n; ++iy)
      for (std::size_t ix = 0; ix < n; ++ix)
        v[g.index(ix, iy, iz)] =
            std::cos(2 * M_PI * (kx * double(ix) + ky * double(iy) + kz * double(iz)) / n);
  lap.apply<double>(v, lv);

  const double lam = (fd_symbol(c, 2 * M_PI * kx / double(n)) +
                      fd_symbol(c, 2 * M_PI * ky / double(n)) +
                      fd_symbol(c, 2 * M_PI * kz / double(n))) /
                     (h * h);
  for (std::size_t i = 0; i < g.size(); ++i)
    EXPECT_NEAR(lv[i], lam * v[i], 1e-10);
}

TEST(StencilLaplacian, ConvergesToContinuumEigenvalue) {
  // Refine the mesh: the discrete eigenvalue of a smooth mode approaches
  // the continuum -(2 pi k / L)^2 at order 2r.
  const double l = 5.0;
  const int k = 1;
  const double exact = -std::pow(2 * M_PI * k / l, 2.0);
  double prev_err = 1e9;
  for (std::size_t n : {8u, 16u, 32u}) {
    Grid3D g = Grid3D::cubic(n, l);
    StencilLaplacian lap(g, 2);
    std::vector<double> v(g.size()), lv(g.size());
    for (std::size_t iz = 0; iz < n; ++iz)
      for (std::size_t iy = 0; iy < n; ++iy)
        for (std::size_t ix = 0; ix < n; ++ix)
          v[g.index(ix, iy, iz)] = std::sin(2 * M_PI * k * double(ix) / n);
    lap.apply<double>(v, lv);
    // Rayleigh quotient.
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      num += v[i] * lv[i];
      den += v[i] * v[i];
    }
    const double err = std::abs(num / den - exact);
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-4);
}

TEST(StencilLaplacian, AnnihilatesConstants) {
  Grid3D g = Grid3D::cubic(9, 4.5);
  StencilLaplacian lap(g, 6);
  std::vector<double> v(g.size(), 3.7), lv(g.size());
  lap.apply<double>(v, lv);
  for (double x : lv) EXPECT_NEAR(x, 0.0, 1e-10);
}

TEST(StencilLaplacian, IsSymmetric) {
  Grid3D g(6, 7, 5, 3.0, 3.5, 2.5);
  StencilLaplacian lap(g, 3);
  Rng rng(31);
  std::vector<double> u(g.size()), v(g.size()), lu(g.size()), lv(g.size());
  rng.fill_uniform(u);
  rng.fill_uniform(v);
  lap.apply<double>(u, lu);
  lap.apply<double>(v, lv);
  double ulv = 0.0, vlu = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    ulv += u[i] * lv[i];
    vlu += v[i] * lu[i];
  }
  EXPECT_NEAR(ulv, vlu, 1e-9 * std::abs(ulv));
}

TEST(StencilLaplacian, ComplexApplyMatchesRealParts) {
  Grid3D g = Grid3D::cubic(8, 4.0);
  StencilLaplacian lap(g, 2);
  Rng rng(32);
  std::vector<double> re(g.size()), im(g.size()), lre(g.size()), lim(g.size());
  rng.fill_uniform(re);
  rng.fill_uniform(im);
  std::vector<std::complex<double>> z(g.size()), lz(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) z[i] = {re[i], im[i]};
  lap.apply<std::complex<double>>(z, lz);
  lap.apply<double>(re, lre);
  lap.apply<double>(im, lim);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(lz[i].real(), lre[i], 1e-12);
    EXPECT_NEAR(lz[i].imag(), lim[i], 1e-12);
  }
}

TEST(StencilLaplacian, MinEigenvalueBoundHolds) {
  Grid3D g = Grid3D::cubic(10, 5.0);
  StencilLaplacian lap(g, 4);
  const double bound = lap.min_eigenvalue_bound();
  // Rayleigh quotients of random vectors must stay above the bound.
  Rng rng(34);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> v(g.size()), lv(g.size());
    rng.fill_uniform(v);
    lap.apply<double>(v, lv);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      num += v[i] * lv[i];
      den += v[i] * v[i];
    }
    EXPECT_GE(num / den, bound - 1e-9);
    EXPECT_LE(num / den, 1e-9);
  }
}

TEST(StencilLaplacian, RadiusLargerThanGridStillPeriodic) {
  // Wrap handling must stay correct when the stencil radius exceeds n/2.
  Grid3D g = Grid3D::cubic(5, 2.5);
  StencilLaplacian lap(g, 4);
  std::vector<double> v(g.size(), 1.0), lv(g.size());
  lap.apply<double>(v, lv);
  for (double x : lv) EXPECT_NEAR(x, 0.0, 1e-9);
}

}  // namespace
}  // namespace rsrpa::grid
