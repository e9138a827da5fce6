// Unit and property tests for the dense linear algebra substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <complex>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/qr.hpp"
#include "sched/thread_pool.hpp"

namespace rsrpa::la {
namespace {

Matrix<double> random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  Matrix<double> a(m, n);
  for (std::size_t j = 0; j < n; ++j) rng.fill_uniform(a.col(j));
  return a;
}

template <typename T = cplx>
Matrix<T> random_cmatrix(std::size_t m, std::size_t n, Rng& rng) {
  Matrix<T> a(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i)
      a(i, j) = T{static_cast<real_t<T>>(rng.uniform(-1, 1)),
                  static_cast<real_t<T>>(rng.uniform(-1, 1))};
  return a;
}

Matrix<double> random_spd(std::size_t n, Rng& rng) {
  Matrix<double> b = random_matrix(n, n, rng);
  Matrix<double> spd(n, n);
  gemm_tn(1.0, b, b, 0.0, spd);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

Matrix<double> random_symmetric(std::size_t n, Rng& rng) {
  Matrix<double> a = random_matrix(n, n, rng);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < j; ++i) a(i, j) = a(j, i);
  return a;
}

TEST(Matrix, BasicAccessAndColumnViews) {
  Matrix<double> a(3, 2);
  a(0, 0) = 1.0;
  a(2, 1) = 5.0;
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 2u);
  auto c1 = a.col(1);
  EXPECT_DOUBLE_EQ(c1[2], 5.0);
  c1[0] = 7.0;
  EXPECT_DOUBLE_EQ(a(0, 1), 7.0);
}

TEST(Matrix, SliceAndSetColsRoundTrip) {
  Rng rng(11);
  Matrix<double> a = random_matrix(5, 6, rng);
  Matrix<double> s = a.slice_cols(2, 3);
  Matrix<double> b(5, 6);
  b.set_cols(2, s);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_DOUBLE_EQ(b(i, 2 + j), a(i, 2 + j));
}

TEST(Matrix, TransposeIdentityAndInvolution) {
  Rng rng(5);
  Matrix<double> a = random_matrix(4, 7, rng);
  Matrix<double> att = a.transposed().transposed();
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      EXPECT_DOUBLE_EQ(att(i, j), a(i, j));
}

TEST(Blas1, DotAxpyNrm2) {
  std::vector<double> x = {1, 2, 3}, y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(nrm2(std::span<const double>(x)), std::sqrt(14.0));
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
}

TEST(Blas1, ComplexDotConventions) {
  std::vector<cplx> x = {{1, 1}, {0, 2}}, y = {{2, 0}, {1, -1}};
  // Unconjugated: (1+i)*2 + 2i*(1-i) = 2+2i + 2i+2 = 4+4i
  const cplx u = dot_u(x, y);
  EXPECT_DOUBLE_EQ(u.real(), 4.0);
  EXPECT_DOUBLE_EQ(u.imag(), 4.0);
  // Conjugated: conj(1+i)*2 + conj(2i)*(1-i) = 2-2i + (-2i)(1-i) = 2-2i -2i-2
  const cplx c = dot_c(x, y);
  EXPECT_DOUBLE_EQ(c.real(), 0.0);
  EXPECT_DOUBLE_EQ(c.imag(), -4.0);
}

TEST(Gemm, MatchesNaiveReference) {
  Rng rng(1);
  const std::size_t m = 17, k = 9, n = 13;
  Matrix<double> a = random_matrix(m, k, rng);
  Matrix<double> b = random_matrix(k, n, rng);
  Matrix<double> c(m, n);
  gemm_nn(1.0, a, b, 0.0, c);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) {
      double ref = 0.0;
      for (std::size_t p = 0; p < k; ++p) ref += a(i, p) * b(p, j);
      EXPECT_NEAR(c(i, j), ref, 1e-12);
    }
}

TEST(Gemm, AlphaBetaScaling) {
  Rng rng(2);
  Matrix<double> a = random_matrix(6, 4, rng);
  Matrix<double> b = random_matrix(4, 5, rng);
  Matrix<double> c0 = random_matrix(6, 5, rng);
  Matrix<double> c = c0;
  gemm_nn(2.0, a, b, 3.0, c);
  Matrix<double> ab(6, 5);
  gemm_nn(1.0, a, b, 0.0, ab);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 6; ++i)
      EXPECT_NEAR(c(i, j), 2.0 * ab(i, j) + 3.0 * c0(i, j), 1e-12);
}

TEST(Gemm, TransposeVariantAgainstExplicitTranspose) {
  Rng rng(3);
  Matrix<double> a = random_matrix(20, 6, rng);
  Matrix<double> b = random_matrix(20, 7, rng);
  Matrix<double> c(6, 7), ref(6, 7);
  gemm_tn(1.0, a, b, 0.0, c);
  Matrix<double> at = a.transposed();
  gemm_nn(1.0, at, b, 0.0, ref);
  for (std::size_t j = 0; j < 7; ++j)
    for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(c(i, j), ref(i, j), 1e-12);
}

TEST(Gemm, ComplexUnconjugatedVsConjugated) {
  Rng rng(4);
  Matrix<cplx> a = random_cmatrix(10, 3, rng);
  Matrix<cplx> b = random_cmatrix(10, 4, rng);
  Matrix<cplx> t(3, 4), h(3, 4);
  gemm_tn(cplx{1, 0}, a, b, cplx{0, 0}, t);
  gemm_hn(cplx{1, 0}, a, b, cplx{0, 0}, h);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 3; ++i) {
      cplx rt{}, rh{};
      for (std::size_t p = 0; p < 10; ++p) {
        rt += a(p, i) * b(p, j);
        rh += std::conj(a(p, i)) * b(p, j);
      }
      EXPECT_NEAR(std::abs(t(i, j) - rt), 0.0, 1e-12);
      EXPECT_NEAR(std::abs(h(i, j) - rh), 0.0, 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Complex GEMMs in the interleaved real view: bitwise across thread
// counts, and within rounding of a plain std::complex reference loop.

enum class Op { NN, TN, HN };

// C = alpha op(A) B + beta C0, accumulated in std::complex<double>, and
// the magnitude of its summands |alpha| |op(A)| |B| + |beta| |C0| (in the
// l1 modulus): the scale rounding error in any summation order is
// relative to.
struct Reference {
  Matrix<cplx> c;
  Matrix<double> scale;
};

// |re| + |im|: within sqrt(2) of |z| and much cheaper than hypot.
double l1(cplx z) { return std::abs(z.real()) + std::abs(z.imag()); }

template <typename T>
Reference reference_gemm(Op op, T alpha, const Matrix<T>& a,
                         const Matrix<T>& b, T beta, const Matrix<T>& c0) {
  const bool nn = op == Op::NN;
  const std::size_t m = nn ? a.rows() : a.cols();
  const std::size_t k = nn ? a.cols() : a.rows();
  Reference ref{Matrix<cplx>(m, b.cols()), Matrix<double>(m, b.cols())};
  for (std::size_t j = 0; j < b.cols(); ++j)
    for (std::size_t i = 0; i < m; ++i) {
      cplx sum{};
      double mag = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        cplx aip = static_cast<cplx>(nn ? a(i, p) : a(p, i));
        if (op == Op::HN) aip = std::conj(aip);
        const cplx bpj = static_cast<cplx>(b(p, j));
        sum += aip * bpj;
        mag += l1(aip) * l1(bpj);
      }
      const cplx c0ij = static_cast<cplx>(c0(i, j));
      ref.c(i, j) = static_cast<cplx>(alpha) * sum +
                    static_cast<cplx>(beta) * c0ij;
      ref.scale(i, j) = l1(static_cast<cplx>(alpha)) * mag +
                        l1(static_cast<cplx>(beta)) * l1(c0ij);
    }
  return ref;
}

template <typename T>
void run_gemm(Op op, T alpha, const Matrix<T>& a, const Matrix<T>& b, T beta,
              Matrix<T>& c) {
  if (op == Op::NN) {
    gemm_nn(alpha, a, b, beta, c);
  } else if (op == Op::TN) {
    gemm_tn(alpha, a, b, beta, c);
  } else {
    if constexpr (std::is_same_v<T, cplx>) gemm_hn(alpha, a, b, beta, c);
  }
}

// Shape (m, k, n): C is m x n and the shared dimension is k.
template <typename T>
void expect_real_view_gemm(Op op, std::size_t m, std::size_t k, std::size_t n,
                           double rel_tol) {
  Rng rng(1000 * m + 10 * k + n);
  const bool nn = op == Op::NN;
  const Matrix<T> a = nn ? random_cmatrix<T>(m, k, rng)
                         : random_cmatrix<T>(k, m, rng);
  const Matrix<T> b = random_cmatrix<T>(k, n, rng);
  const Matrix<T> c0 = random_cmatrix<T>(m, n, rng);
  const T alpha(0.75f, -0.5f);
  for (const T beta : {T(0), T(1), T(-0.25f, 0.5f)}) {
    Matrix<T> serial = c0, threaded = c0;
    sched::set_global_threads(1);
    run_gemm(op, alpha, a, b, beta, serial);
    sched::set_global_threads(4);
    run_gemm(op, alpha, a, b, beta, threaded);
    sched::set_global_threads(0);

    const Reference ref = reference_gemm(op, alpha, a, b, beta, c0);
    double rel = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(serial(i, j), threaded(i, j))
            << "op=" << static_cast<int>(op) << " shape=(" << m << ", " << k
            << ", " << n << ") i=" << i << " j=" << j;
        const double err =
            std::abs(static_cast<cplx>(serial(i, j)) - ref.c(i, j));
        rel = std::max(rel, err / ref.scale(i, j));
      }
    EXPECT_LE(rel, rel_tol)
        << "op=" << static_cast<int>(op) << " shape=(" << m << ", " << k
        << ", " << n << ") beta=" << beta;
  }
}

// The block COCG shapes at n_d = 729: P beta (729, s, s) and the
// conjugacy products W^T W (s, 729, s); then short columns against a long
// shared dimension, odd lengths that leave vector tails, and shapes wide
// enough to split into several column tasks at 4 threads.
template <typename T>
void expect_real_view_gemms(double rel_tol) {
  std::vector<Op> ops = {Op::NN, Op::TN};
  if constexpr (std::is_same_v<T, cplx>) ops.push_back(Op::HN);
  for (const Op op : ops) {
    for (std::size_t s : {1u, 2u, 3u, 4u, 8u}) {
      if (op == Op::NN)
        expect_real_view_gemm<T>(op, 729, s, s, rel_tol);
      else
        expect_real_view_gemm<T>(op, s, 729, s, rel_tol);
    }
    expect_real_view_gemm<T>(op, 5, 729, 3, rel_tol);
    expect_real_view_gemm<T>(op, 7, 13, 5, rel_tol);
    expect_real_view_gemm<T>(op, 731, 3, 1, rel_tol);
    expect_real_view_gemm<T>(op, 3, 731, 9, rel_tol);
  }
  expect_real_view_gemm<T>(Op::NN, 731, 101, 200, rel_tol);
  expect_real_view_gemm<T>(Op::TN, 33, 731, 400, rel_tol);
}

TEST(Gemm, RealViewComplexMatchesReferenceAndIsThreadInvariant) {
  expect_real_view_gemms<cplx>(1e-14);
}

TEST(Gemm, RealViewComplexFloatMatchesReferenceAndIsThreadInvariant) {
  expect_real_view_gemms<cplxf>(1e-6);
}

// ---------------------------------------------------------------------------
// The fused block COCG kernels against the GEMM sequence they replace:
// Y, W, rho and P_next bitwise, at 1 and 4 threads; ||W|| to rounding.

template <typename T>
void expect_bitwise(const Matrix<T>& got, const Matrix<T>& want,
                    const char* what, std::size_t s, int threads) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t j = 0; j < got.cols(); ++j)
    for (std::size_t i = 0; i < got.rows(); ++i)
      ASSERT_EQ(got(i, j), want(i, j))
          << what << " s=" << s << " threads=" << threads << " i=" << i
          << " j=" << j;
}

template <typename T>
void expect_cocg_kernels_match_gemms(std::size_t n, std::size_t s) {
  Rng rng(100 * n + s);
  const Matrix<T> p = random_cmatrix<T>(n, s, rng);
  const Matrix<T> u = random_cmatrix<T>(n, s, rng);
  const Matrix<T> y0 = random_cmatrix<T>(n, s, rng);
  const Matrix<T> w0 = random_cmatrix<T>(n, s, rng);
  const Matrix<T> alpha = random_cmatrix<T>(s, s, rng);
  Matrix<T> beta = random_cmatrix<T>(s, s, rng);
  if (s > 1) beta(1, 0) = T{};  // a skipped zero coefficient
  for (int threads : {1, 4}) {
    sched::set_global_threads(threads);
    Matrix<T> y_ref = y0, w_ref = w0, rho_ref(s, s);
    gemm_nn(T{1}, p, alpha, T{1}, y_ref);
    gemm_nn(T{-1}, u, alpha, T{1}, w_ref);
    gemm_tn(T{1}, w_ref, w_ref, T{0}, rho_ref);
    Matrix<T> y = y0, w = w0, rho(s, s);
    const double wnorm = cocg_update(p, u, alpha, y, w, rho);
    expect_bitwise(y, y_ref, "Y", s, threads);
    expect_bitwise(w, w_ref, "W", s, threads);
    expect_bitwise(rho, rho_ref, "rho", s, threads);
    EXPECT_EQ(wnorm, norm_fro(w_ref)) << "s=" << s << " threads=" << threads;

    Matrix<T> pn_ref = w0, pn(n, s);
    gemm_nn(T{1}, p, beta, T{1}, pn_ref);
    cocg_direction(w0, p, beta, pn);
    expect_bitwise(pn, pn_ref, "P_next", s, threads);
  }
  sched::set_global_threads(0);
}

TEST(CocgKernels, FusedStepMatchesGemmSequenceBitwise) {
  for (std::size_t s : {1u, 2u, 3u, 4u, 8u}) {
    expect_cocg_kernels_match_gemms<cplx>(729, s);
    expect_cocg_kernels_match_gemms<cplxf>(729, s);
  }
  // Odd length, and one shape large enough to split into column tasks.
  expect_cocg_kernels_match_gemms<cplx>(731, 3);
  expect_cocg_kernels_match_gemms<cplx>(70001, 8);
}

TEST(CocgKernels, NormFroMatchesLongDoubleSum) {
  // norm_fro reassociates the sum of squares over 32 chains per column; it
  // stays within a few ulp of a long double accumulation.
  Rng rng(17);
  const Matrix<cplx> a = random_cmatrix<cplx>(1001, 3, rng);
  const Matrix<cplxf> af = random_cmatrix<cplxf>(257, 2, rng);
  const Matrix<double> ar = random_matrix(333, 4, rng);
  auto exact = [](const auto& m) {
    long double sum = 0.0L;
    for (std::size_t j = 0; j < m.cols(); ++j)
      for (std::size_t i = 0; i < m.rows(); ++i)
        sum += static_cast<long double>(
            std::norm(static_cast<std::complex<double>>(m(i, j))));
    return static_cast<double>(std::sqrt(sum));
  };
  EXPECT_NEAR(norm_fro(a), exact(a), 4e-16 * exact(a));
  EXPECT_NEAR(norm_fro(af), exact(af), 4e-16 * exact(af));
  EXPECT_NEAR(norm_fro(ar), exact(ar), 4e-16 * exact(ar));
}

// ---------------------------------------------------------------------------
// syrk_tn: the lower-triangle rank-k update against gemm_tn.

// max |x - y| over max |y|.
double max_rel_diff(const Matrix<double>& x, const Matrix<double>& y) {
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(x.data()[i] - y.data()[i]));
    scale = std::max(scale, std::abs(y.data()[i]));
  }
  return diff / scale;
}

TEST(Syrk, MatchesGemmTnAndIsExactlySymmetric) {
  // Odd sizes, edge tiles (m mod 4 != 0), and shared dimensions below,
  // at and across the 256-row chunk (k mod 4 != 0 exercises the tail).
  const std::size_t shapes[][2] = {{1, 1},   {3, 5},    {4, 8},   {7, 13},
                                   {256, 9}, {257, 31}, {513, 6}, {700, 33},
                                   {5, 130}, {1001, 67}};
  for (const auto& [k, m] : shapes) {
    Rng rng(10 * k + m);
    const Matrix<double> a = random_matrix(k, m, rng);
    for (const double beta : {0.0, 1.0, -0.5}) {
      Matrix<double> c0 = random_symmetric(m, rng);
      Matrix<double> ref = c0;
      gemm_tn(-1.5, a, a, beta, ref);
      // The upper triangle is never read: poison it.
      for (std::size_t j = 1; j < m; ++j)
        for (std::size_t i = 0; i < j; ++i)
          c0(i, j) = std::numeric_limits<double>::quiet_NaN();
      Matrix<double> c = c0;
      syrk_tn(-1.5, a, beta, c);
      EXPECT_LE(max_rel_diff(c, ref), 1e-14)
          << "k=" << k << " m=" << m << " beta=" << beta;
      for (std::size_t j = 0; j < m; ++j)
        for (std::size_t i = 0; i < j; ++i)
          ASSERT_EQ(c(i, j), c(j, i)) << "k=" << k << " m=" << m;
    }
  }
}

TEST(Syrk, BitwiseEqualAtOneAndFourLanes) {
  Rng rng(41);
  for (const auto& [k, m] : {std::pair<std::size_t, std::size_t>{713, 301},
                             {11408, 61}}) {
    const Matrix<double> a = random_matrix(k, m, rng);
    const Matrix<double> c0 = random_symmetric(m, rng);
    sched::set_global_threads(1);
    Matrix<double> serial = c0;
    syrk_tn(-1.0, a, 1.0, serial);
    sched::set_global_threads(4);
    Matrix<double> threaded = c0;
    syrk_tn(-1.0, a, 1.0, threaded);
    sched::set_global_threads(0);
    expect_bitwise(threaded, serial, "syrk_tn", m, 4);
  }
}

// The recipe documented at syrk_tile, written out in scalars: per 256-row
// chunk of the shared dimension, four std::fma chains (chain = offset mod
// 4), the tail as one more step padded with zeros, (s0 + s1) + (s2 + s3),
// then fma(alpha, sum, c). Beta scales the lower triangle first; the
// upper triangle is the mirror.
Matrix<double> syrk_chain_sum_reference(double alpha, const Matrix<double>& a,
                                        double beta, Matrix<double> c) {
  constexpr std::size_t kKB = 256;
  const std::size_t k = a.rows(), m = a.cols();
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t i = j; i < m; ++i) {
      double cij = beta == 0.0 ? 0.0 : beta == 1.0 ? c(i, j) : c(i, j) * beta;
      for (std::size_t kk = 0; kk < k; kk += kKB) {
        const std::size_t klen = std::min(kKB, k - kk);
        double s[4] = {0.0, 0.0, 0.0, 0.0};
        for (std::size_t p = 0; p < klen; p += 4)
          for (std::size_t l = 0; l < 4; ++l) {
            const bool in = p + l < klen;
            s[l] = std::fma(in ? a(kk + p + l, i) : 0.0,
                            in ? a(kk + p + l, j) : 0.0, s[l]);
          }
        cij = std::fma(alpha, (s[0] + s[1]) + (s[2] + s[3]), cij);
      }
      c(i, j) = cij;
      c(j, i) = cij;
    }
  return c;
}

TEST(Syrk, EntriesAreTheDocumentedChainSum) {
  // k mod 4 != 0 and m mod 4 != 0 (the tail step and the edge tiles),
  // k > 256 (more than one chunk), and a shape large enough that four
  // lanes split the work.
  const std::size_t shapes[][2] = {{1, 1},   {3, 5},     {257, 31},
                                   {513, 6}, {1001, 67}, {2051, 303}};
  for (const auto& [k, m] : shapes) {
    Rng rng(7 * k + m);
    const Matrix<double> a = random_matrix(k, m, rng);
    for (const double beta : {0.0, 1.0, -0.5}) {
      Matrix<double> c0 = random_symmetric(m, rng);
      const Matrix<double> want = syrk_chain_sum_reference(-1.5, a, beta, c0);
      for (std::size_t j = 1; j < m; ++j)
        for (std::size_t i = 0; i < j; ++i)
          c0(i, j) = std::numeric_limits<double>::quiet_NaN();
      for (const int threads : {1, 4}) {
        sched::set_global_threads(threads);
        Matrix<double> got = c0;
        syrk_tn(-1.5, a, beta, got);
        for (std::size_t j = 0; j < m; ++j)
          for (std::size_t i = 0; i < m; ++i)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                      std::bit_cast<std::uint64_t>(want(i, j)))
                << "k=" << k << " m=" << m << " beta=" << beta
                << " threads=" << threads << " i=" << i << " j=" << j;
      }
    }
  }
  sched::set_global_threads(0);
}

TEST(Lu, SolvesRandomRealSystem) {
  Rng rng(6);
  const std::size_t n = 30;
  Matrix<double> a = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;
  Matrix<double> x_true = random_matrix(n, 3, rng);
  Matrix<double> b(n, 3);
  gemm_nn(1.0, a, x_true, 0.0, b);
  Lu<double> f(a);
  f.solve_inplace(b);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(b(i, j), x_true(i, j), 1e-9);
}

TEST(Lu, SolvesComplexSymmetricSystem) {
  Rng rng(7);
  const std::size_t n = 20;
  // Complex symmetric (A = A^T, not Hermitian), as in the Sternheimer ops.
  Matrix<cplx> a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const cplx v{rng.uniform(-1, 1), rng.uniform(-1, 1)};
      a(i, j) = v;
      a(j, i) = v;
    }
  for (std::size_t i = 0; i < n; ++i) a(i, i) += cplx{4.0, 2.0};
  Matrix<cplx> x_true = random_cmatrix(n, 2, rng);
  Matrix<cplx> b(n, 2);
  gemm_nn(cplx{1, 0}, a, x_true, cplx{0, 0}, b);
  Lu<cplx> f(a);
  f.solve_inplace(b);
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(b(i, j) - x_true(i, j)), 0.0, 1e-9);
}

TEST(Lu, SingularMatrixThrowsBreakdown) {
  Matrix<double> a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // third row/col all zero
  EXPECT_THROW(Lu<double>{a}, NumericalBreakdown);
}

TEST(Lu, DetOfKnownMatrix) {
  Matrix<double> a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 1;
  a(1, 0) = 2;
  a(1, 1) = 4;
  Lu<double> f(a);
  EXPECT_NEAR(f.det(), 10.0, 1e-12);
}

TEST(Lu, PivotRatioDetectsIllConditioning) {
  Rng rng(8);
  Matrix<double> well = random_spd(10, rng);
  Matrix<double> ill = well;
  // Row 9 = row 8 plus a 1e-10 share of the old row 9: nearly dependent,
  // yet far enough from row 8 that the last pivot stays nonzero whether
  // or not the elimination contracts its multiply-adds into fma.
  for (std::size_t j = 0; j < 10; ++j)
    ill(9, j) = well(8, j) + 1e-10 * well(9, j);
  Lu<double> fw(well), fi(ill);
  EXPECT_GT(fw.pivot_ratio(), 1e-6);
  EXPECT_LT(fi.pivot_ratio(), 1e-8);
}

TEST(Cholesky, FactorsAndSolves) {
  Rng rng(9);
  const std::size_t n = 25;
  Matrix<double> a = random_spd(n, rng);
  Matrix<double> x_true = random_matrix(n, 2, rng);
  Matrix<double> b(n, 2);
  gemm_nn(1.0, a, x_true, 0.0, b);
  Cholesky chol(a);
  chol.solve_inplace(b);
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(b(i, j), x_true(i, j), 1e-9);
}

TEST(Cholesky, FactorReconstructsMatrix) {
  Rng rng(10);
  const std::size_t n = 12;
  Matrix<double> a = random_spd(n, rng);
  Cholesky chol(a);
  const Matrix<double>& l = chol.l();
  Matrix<double> lt = l.transposed();
  Matrix<double> rec(n, n);
  gemm_nn(1.0, l, lt, 0.0, rec);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rec(i, j), a(i, j), 1e-9);
}

TEST(Cholesky, IndefiniteThrows) {
  Matrix<double> a = Matrix<double>::identity(3);
  a(2, 2) = -1.0;
  EXPECT_THROW(Cholesky{a}, NumericalBreakdown);
}

TEST(Cholesky, RightBackwardSolve) {
  Rng rng(12);
  const std::size_t n = 8;
  Matrix<double> b = random_spd(n, rng);
  Cholesky chol(b);
  Matrix<double> c = random_matrix(5, n, rng);
  Matrix<double> orig = c;
  chol.right_backward_t_inplace(c);
  // Verify C_new * L^T == C_orig.
  Matrix<double> lt = chol.l().transposed();
  Matrix<double> rec(5, n);
  gemm_nn(1.0, c, lt, 0.0, rec);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_NEAR(rec(i, j), orig(i, j), 1e-10);
}

TEST(SymEig, DiagonalMatrix) {
  Matrix<double> a(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 7.0;
  a(3, 3) = 0.5;
  EigResult r = sym_eig(a);
  ASSERT_EQ(r.values.size(), 4u);
  EXPECT_NEAR(r.values[0], -1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 0.5, 1e-12);
  EXPECT_NEAR(r.values[2], 3.0, 1e-12);
  EXPECT_NEAR(r.values[3], 7.0, 1e-12);
}

TEST(SymEig, ResidualAndOrthogonality) {
  Rng rng(13);
  const std::size_t n = 40;
  Matrix<double> a = random_symmetric(n, rng);
  EigResult r = sym_eig(a);
  // A V = V D
  Matrix<double> av(n, n);
  gemm_nn(1.0, a, r.vectors, 0.0, av);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av(i, j), r.values[j] * r.vectors(i, j), 1e-8);
  // V^T V = I
  Matrix<double> vtv(n, n);
  gemm_tn(1.0, r.vectors, r.vectors, 0.0, vtv);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(SymEig, TracePreserved) {
  Rng rng(14);
  const std::size_t n = 30;
  Matrix<double> a = random_symmetric(n, rng);
  double tr = 0.0;
  for (std::size_t i = 0; i < n; ++i) tr += a(i, i);
  EigResult r = sym_eig(a);
  double sum = 0.0;
  for (double v : r.values) sum += v;
  EXPECT_NEAR(sum, tr, 1e-9);
}

TEST(SymEig, ValuesOnlyAgreesWithFull) {
  Rng rng(15);
  Matrix<double> a = random_symmetric(25, rng);
  EigResult full = sym_eig(a);
  std::vector<double> vals = sym_eigvals(a);
  ASSERT_EQ(vals.size(), full.values.size());
  for (std::size_t i = 0; i < vals.size(); ++i)
    EXPECT_NEAR(vals[i], full.values[i], 1e-9);
}

// ---------------------------------------------------------------------------
// The column-order tridiagonalization: edge sizes, its branches, accuracy
// at working size, and lane-count invariance.

// max |A V - V D| over max |lambda|, and max |V^T V - I|.
void expect_eigenpairs(const Matrix<double>& a, const EigResult& r,
                       double tol, const char* what) {
  const std::size_t n = a.rows();
  ASSERT_EQ(r.values.size(), n) << what;
  ASSERT_EQ(r.vectors.rows(), n) << what;
  ASSERT_EQ(r.vectors.cols(), n) << what;
  double scale = 0.0;
  for (double v : r.values) scale = std::max(scale, std::abs(v));
  if (scale == 0.0) scale = 1.0;
  Matrix<double> av(n, n), vtv(n, n);
  gemm_nn(1.0, a, r.vectors, 0.0, av);
  gemm_tn(1.0, r.vectors, r.vectors, 0.0, vtv);
  double res = 0.0, orth = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      res = std::max(res, std::abs(av(i, j) - r.values[j] * r.vectors(i, j)));
      orth = std::max(orth, std::abs(vtv(i, j) - (i == j ? 1.0 : 0.0)));
    }
  EXPECT_LE(res / scale, tol) << what << ": residual";
  EXPECT_LE(orth, tol) << what << ": orthogonality";
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(r.values[i - 1], r.values[i]) << what << ": ascending";
}

TEST(SymEig, EmptyOneAndTwoByTwo) {
  const Matrix<double> a0(0, 0);
  EXPECT_TRUE(sym_eig(a0).values.empty());
  EXPECT_TRUE(sym_eigvals(a0).empty());

  Matrix<double> a1(1, 1);
  a1(0, 0) = -2.5;
  const EigResult r1 = sym_eig(a1);
  ASSERT_EQ(r1.values.size(), 1u);
  EXPECT_EQ(r1.values[0], -2.5);
  EXPECT_EQ(std::abs(r1.vectors(0, 0)), 1.0);
  EXPECT_EQ(sym_eigvals(a1), std::vector<double>{-2.5});

  Matrix<double> a2(2, 2);
  a2(0, 0) = 1.0;
  a2(1, 1) = 3.0;
  a2(1, 0) = a2(0, 1) = 0.5;
  const double mid = 2.0, rad = std::sqrt(1.0 + 0.25);
  const EigResult r2 = sym_eig(a2);
  expect_eigenpairs(a2, r2, 1e-15, "2x2");
  EXPECT_NEAR(r2.values[0], mid - rad, 1e-15);
  EXPECT_NEAR(r2.values[1], mid + rad, 1e-15);
  const std::vector<double> v2 = sym_eigvals(a2);
  ASSERT_EQ(v2.size(), 2u);
  EXPECT_NEAR(v2[0], mid - rad, 1e-15);
  EXPECT_NEAR(v2[1], mid + rad, 1e-15);
}

TEST(SymEig, ZeroRowTakesTheUnscaledBranch) {
  // Row 5 is zero and row n-1 has a zero off-diagonal part: both steps
  // find scale == 0 (the Householder updates of later rows keep them so).
  Rng rng(42);
  const std::size_t n = 12;
  Matrix<double> a = random_symmetric(n, rng);
  for (std::size_t k = 0; k < n; ++k) {
    a(5, k) = a(k, 5) = 0.0;
    if (k + 1 < n) a(n - 1, k) = a(k, n - 1) = 0.0;
  }
  a(n - 1, n - 1) = 2.0;
  const EigResult r = sym_eig(a);
  expect_eigenpairs(a, r, 1e-14, "zero row");
  auto has = [&](double v) {
    for (double x : r.values)
      if (std::abs(x - v) <= 1e-14) return true;
    return false;
  };
  EXPECT_TRUE(has(0.0));
  EXPECT_TRUE(has(2.0));
  const std::vector<double> vals = sym_eigvals(a);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(vals[i], r.values[i], 1e-14);
}

TEST(SymEig, DiagonalAndRepeatedEigenvalues) {
  // A diagonal matrix is already tridiagonal: its values come back exact.
  const std::vector<double> diag = {2.0, -1.0, 2.0, 0.5, -1.0,
                                    2.0, 3.0,  0.5, 2.0};
  const std::size_t n = diag.size();
  Matrix<double> d(n, n);
  for (std::size_t i = 0; i < n; ++i) d(i, i) = diag[i];
  std::vector<double> sorted = diag;
  std::sort(sorted.begin(), sorted.end());
  const EigResult rd = sym_eig(d);
  EXPECT_EQ(rd.values, sorted);
  EXPECT_EQ(sym_eigvals(d), sorted);
  expect_eigenpairs(d, rd, 0.0, "diagonal");

  // Dense, with eigenvalues of multiplicity 3, 2 and 1: Q diag Q^T.
  Rng rng(43);
  const std::size_t m = 40;
  const Matrix<double> q = sym_eig(random_symmetric(m, rng)).vectors;
  std::vector<double> lam(m);
  for (std::size_t i = 0; i < m; ++i)
    lam[i] = i < 3 ? -1.0 : i < 5 ? 0.25 : 1.0 + static_cast<double>(i);
  Matrix<double> ql = q;
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t i = 0; i < m; ++i) ql(i, j) *= lam[j];
  Matrix<double> a(m, m);
  gemm_nn(1.0, ql, q.transposed(), 0.0, a);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t i = 0; i < j; ++i) a(i, j) = a(j, i);
  const EigResult r = sym_eig(a);
  expect_eigenpairs(a, r, 1e-13, "repeated");
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(r.values[i], lam[i], 1e-13);
}

TEST(SymEig, ResidualsAndOrthogonalityAtWorkingSize) {
  Rng rng(44);
  const std::size_t n = 240;
  const Matrix<double> a = random_symmetric(n, rng);
  const EigResult r = sym_eig(a);
  expect_eigenpairs(a, r, 1e-13, "n=240");
  const std::vector<double> vals = sym_eigvals(a);
  ASSERT_EQ(vals.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(vals[i], r.values[i], 1e-13 * std::abs(r.values.back()));
}

TEST(SymEig, BitwiseEqualAtOneAndFourLanes) {
  Rng rng(45);
  const Matrix<double> a = random_symmetric(260, rng);
  sched::set_global_threads(1);
  const EigResult serial = sym_eig(a);
  const std::vector<double> serial_vals = sym_eigvals(a);
  sched::set_global_threads(4);
  const EigResult threaded = sym_eig(a);
  const std::vector<double> threaded_vals = sym_eigvals(a);
  sched::set_global_threads(0);
  EXPECT_EQ(threaded.values, serial.values);
  EXPECT_EQ(threaded_vals, serial_vals);
  expect_bitwise(threaded.vectors, serial.vectors, "sym_eig vectors", 260, 4);
}

// sym_eig, sym_eigvals and tridiag_eig (on a's diagonal and first
// subdiagonal) at one and four lanes: bitwise equal, and eigenpairs of
// both problems to 1e-12 n.
void expect_eig_lane_invariant(const Matrix<double>& a, const char* what) {
  const std::size_t n = a.rows();
  std::vector<double> d(n), e(n - 1);
  Matrix<double> t(n, n);
  for (std::size_t i = 0; i < n; ++i) d[i] = t(i, i) = a(i, i);
  for (std::size_t i = 0; i + 1 < n; ++i)
    e[i] = t(i + 1, i) = t(i, i + 1) = a(i + 1, i);
  sched::set_global_threads(1);
  const EigResult serial = sym_eig(a);
  const std::vector<double> serial_vals = sym_eigvals(a);
  const EigResult serial_t = tridiag_eig(d, e);
  sched::set_global_threads(4);
  const EigResult threaded = sym_eig(a);
  const std::vector<double> threaded_vals = sym_eigvals(a);
  const EigResult threaded_t = tridiag_eig(d, e);
  sched::set_global_threads(0);
  EXPECT_EQ(threaded.values, serial.values) << what;
  EXPECT_EQ(threaded_vals, serial_vals) << what;
  EXPECT_EQ(threaded_t.values, serial_t.values) << what;
  expect_bitwise(threaded.vectors, serial.vectors, what, n, 4);
  expect_bitwise(threaded_t.vectors, serial_t.vectors, what, n, 4);
  const double tol = 1e-12 * static_cast<double>(n);
  expect_eigenpairs(a, threaded, tol, what);
  expect_eigenpairs(t, threaded_t, tol, what);
}

TEST(SymEig, OrdersAroundTheForkThresholdAtOneAndFourLanes) {
  // Either side of the 128 at which the vector phases fork, and orders
  // that are not multiples of 8 (a cache line, a column block) or of 4.
  Rng rng(46);
  for (const std::size_t n : {64, 127, 128, 130, 257})
    expect_eig_lane_invariant(random_symmetric(n, rng),
                              ("random n=" + std::to_string(n)).c_str());
}

TEST(SymEig, NoHouseholderStepsAtOneAndFourLanes) {
  // A diagonal matrix has zero scale in every row (h_i = 0 throughout);
  // an already tridiagonal one leaves each step one nonzero entry.
  Rng rng(47);
  const std::size_t n = 150;
  Matrix<double> diag(n, n), tri(n, n);
  for (std::size_t i = 0; i < n; ++i)
    diag(i, i) = tri(i, i) = rng.uniform(-1, 1);
  for (std::size_t i = 0; i + 1 < n; ++i)
    tri(i + 1, i) = tri(i, i + 1) = rng.uniform(-1, 1);
  expect_eig_lane_invariant(diag, "diagonal n=150");
  expect_eig_lane_invariant(tri, "tridiagonal n=150");
}

TEST(SymEig, RepeatedEigenvaluesAtOneAndFourLanes) {
  // Two copies of one random block: every eigenvalue is double.
  Rng rng(48);
  const std::size_t m = 70;
  const Matrix<double> b = random_symmetric(m, rng);
  Matrix<double> a(2 * m, 2 * m);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t i = 0; i < m; ++i) a(i, j) = a(m + i, m + j) = b(i, j);
  expect_eig_lane_invariant(a, "repeated n=140");
}

TEST(SymEig, WorkingOrderOf729AtOneAndFourLanes) {
  Rng rng(49);
  expect_eig_lane_invariant(random_symmetric(729, rng), "random n=729");
}

TEST(SymEigGen, ReducesToStandardWhenBIsIdentity) {
  Rng rng(16);
  const std::size_t n = 15;
  Matrix<double> a = random_symmetric(n, rng);
  EigResult std_r = sym_eig(a);
  EigResult gen_r = sym_eig_gen(a, Matrix<double>::identity(n));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(gen_r.values[i], std_r.values[i], 1e-9);
}

TEST(SymEigGen, SatisfiesGeneralizedResidual) {
  Rng rng(17);
  const std::size_t n = 20;
  Matrix<double> a = random_symmetric(n, rng);
  Matrix<double> b = random_spd(n, rng);
  EigResult r = sym_eig_gen(a, b);
  Matrix<double> av(n, n), bv(n, n);
  gemm_nn(1.0, a, r.vectors, 0.0, av);
  gemm_nn(1.0, b, r.vectors, 0.0, bv);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av(i, j), r.values[j] * bv(i, j), 1e-7);
  // B-orthonormality: V^T B V = I.
  Matrix<double> vtbv(n, n);
  gemm_tn(1.0, r.vectors, bv, 0.0, vtbv);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(vtbv(i, j), i == j ? 1.0 : 0.0, 1e-8);
}

TEST(TridiagEig, KnownLaplacianSpectrum) {
  // 1D Dirichlet Laplacian tridiag(-1, 2, -1): eigenvalues
  // 2 - 2 cos(k pi / (n+1)).
  const std::size_t n = 16;
  std::vector<double> d(n, 2.0), e(n - 1, -1.0);
  std::vector<double> vals = tridiag_eigvals(d, e);
  for (std::size_t k = 1; k <= n; ++k) {
    const double expected = 2.0 - 2.0 * std::cos(M_PI * k / (n + 1));
    EXPECT_NEAR(vals[k - 1], expected, 1e-10);
  }
}

TEST(TridiagEig, VectorsSatisfyResidual) {
  const std::size_t n = 10;
  std::vector<double> d(n), e(n - 1);
  Rng rng(18);
  for (auto& v : d) v = rng.uniform(-1, 1);
  for (auto& v : e) v = rng.uniform(-1, 1);
  EigResult r = tridiag_eig(d, e);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double av = d[i] * r.vectors(i, j);
      if (i > 0) av += e[i - 1] * r.vectors(i - 1, j);
      if (i + 1 < n) av += e[i] * r.vectors(i + 1, j);
      EXPECT_NEAR(av, r.values[j] * r.vectors(i, j), 1e-9);
    }
  }
}

TEST(Qr, CholeskyQrOrthonormalizes) {
  Rng rng(19);
  Matrix<double> v = random_matrix(50, 8, rng);
  Matrix<double> orig = v;
  cholesky_qr(v);
  Matrix<double> g(8, 8);
  gemm_tn(1.0, v, v, 0.0, g);
  for (std::size_t j = 0; j < 8; ++j)
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-10);
  // Range is preserved: orig = v * (v^T orig).
  Matrix<double> coef(8, 8), rec(50, 8);
  gemm_tn(1.0, v, orig, 0.0, coef);
  gemm_nn(1.0, v, coef, 0.0, rec);
  for (std::size_t j = 0; j < 8; ++j)
    for (std::size_t i = 0; i < 50; ++i)
      EXPECT_NEAR(rec(i, j), orig(i, j), 1e-9);
}

TEST(Qr, HouseholderHandlesNearDependentColumns) {
  Rng rng(20);
  Matrix<double> v = random_matrix(40, 4, rng);
  // Make column 3 nearly equal to column 0.
  for (std::size_t i = 0; i < 40; ++i) v(i, 3) = v(i, 0) + 1e-12 * v(i, 1);
  householder_qr(v);
  Matrix<double> g(4, 4);
  gemm_tn(1.0, v, v, 0.0, g);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-8);
}

TEST(Qr, OrthonormalizeFallsBackGracefully) {
  Rng rng(21);
  Matrix<double> v = random_matrix(30, 3, rng);
  for (std::size_t i = 0; i < 30; ++i) v(i, 2) = 2.0 * v(i, 0);  // exact dup
  orthonormalize(v);
  Matrix<double> g(3, 3);
  gemm_tn(1.0, v, v, 0.0, g);
  EXPECT_NEAR(g(0, 0), 1.0, 1e-8);
  EXPECT_NEAR(g(1, 1), 1.0, 1e-8);
}

// Reconstruction residual max_ij |A[:, pivots] - Q R| of a pivoted QR.
double qrcp_residual(const Matrix<double>& a, const PivotedQrResult& qr) {
  Matrix<double> rec(a.rows(), qr.r.cols());
  gemm_nn(1.0, qr.q, qr.r, 0.0, rec);
  double err = 0.0;
  for (std::size_t j = 0; j < rec.cols(); ++j)
    for (std::size_t i = 0; i < rec.rows(); ++i)
      err = std::max(err, std::abs(rec(i, j) - a(i, qr.pivots[j])));
  return err;
}

TEST(PivotedQr, RevealsLowRank) {
  Rng rng(31);
  // A = U V^T has exact rank 5; the QRCP must stop there.
  Matrix<double> u = random_matrix(40, 5, rng);
  Matrix<double> v = random_matrix(30, 5, rng);
  Matrix<double> vt = v.transposed();
  Matrix<double> a(40, 30);
  gemm_nn(1.0, u, vt, 0.0, a);

  PivotedQrResult qr = pivoted_qr(a, 0, 1e-10);
  EXPECT_EQ(qr.rank, 5u);
  for (std::size_t i = 1; i < qr.rank; ++i)
    EXPECT_LE(std::abs(qr.r(i, i)), std::abs(qr.r(i - 1, i - 1)) + 1e-14);
  EXPECT_LT(qrcp_residual(a, qr), 1e-9);
}

TEST(PivotedQr, TracksGradedSingularValues) {
  Rng rng(32);
  const std::size_t n = 24;
  // A = Q1 diag(2^-k) Q2^T: |R(k,k)| must fall with the graded spectrum.
  Matrix<double> q1 = random_matrix(n, n, rng);
  Matrix<double> q2 = random_matrix(n, n, rng);
  householder_qr(q1);
  householder_qr(q2);
  Matrix<double> q2t = q2.transposed();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) q2t(i, j) *= std::pow(2.0, -double(i));
  Matrix<double> a(n, n);
  gemm_nn(1.0, q1, q2t, 0.0, a);

  PivotedQrResult qr = pivoted_qr(a);
  ASSERT_EQ(qr.rank, n);
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(std::abs(qr.r(i, i)), std::abs(qr.r(i - 1, i - 1)) + 1e-14);
  // Greedy QRCP tracks a graded spectrum to within a modest factor
  // (Businger-Golub bound is exponential; in practice it is tight here).
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = std::pow(2.0, -double(i));
    EXPECT_GT(std::abs(qr.r(i, i)), 0.01 * sigma);
    EXPECT_LT(std::abs(qr.r(i, i)), 100.0 * sigma);
  }
  // A rel_tol cut selects the numerical rank at that threshold.
  PivotedQrResult cut = pivoted_qr(a, 0, std::pow(2.0, -10.5));
  EXPECT_GE(cut.rank, 8u);
  EXPECT_LE(cut.rank, 14u);
}

TEST(PivotedQr, BitwiseDeterministicAcrossThreadCounts) {
  Rng rng(33);
  Matrix<double> a = random_matrix(60, 90, rng);

  sched::set_global_threads(1);
  PivotedQrResult serial = pivoted_qr(a, 40, 1e-12);
  sched::set_global_threads(4);
  PivotedQrResult threaded = pivoted_qr(a, 40, 1e-12);
  sched::set_global_threads(0);

  ASSERT_EQ(serial.rank, threaded.rank);
  ASSERT_EQ(serial.pivots, threaded.pivots);
  for (std::size_t j = 0; j < serial.r.cols(); ++j)
    for (std::size_t i = 0; i < serial.r.rows(); ++i)
      EXPECT_EQ(serial.r(i, j), threaded.r(i, j));
  for (std::size_t j = 0; j < serial.q.cols(); ++j)
    for (std::size_t i = 0; i < serial.q.rows(); ++i)
      EXPECT_EQ(serial.q(i, j), threaded.q(i, j));
}

TEST(PivotedQr, FullRankAgreesWithUnpivotedQr) {
  Rng rng(34);
  Matrix<double> a = random_matrix(35, 12, rng);
  for (std::size_t i = 0; i < 12; ++i) a(i, i) += 2.0;  // well-conditioned

  PivotedQrResult qr = pivoted_qr(a);
  EXPECT_EQ(qr.rank, 12u);
  EXPECT_LT(qrcp_residual(a, qr), 1e-10);

  // Q^T Q = I.
  Matrix<double> g(12, 12);
  gemm_tn(1.0, qr.q, qr.q, 0.0, g);
  for (std::size_t j = 0; j < 12; ++j)
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-10);

  // Same column space as the unpivoted Householder Q: the cross-Gram
  // Q_piv^T Q_house must be orthogonal (projectors coincide).
  Matrix<double> qh = a;
  householder_qr(qh);
  Matrix<double> x(12, 12), xtx(12, 12);
  gemm_tn(1.0, qr.q, qh, 0.0, x);
  gemm_tn(1.0, x, x, 0.0, xtx);
  for (std::size_t j = 0; j < 12; ++j)
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_NEAR(xtx(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(NormFro, MatchesDefinition) {
  Matrix<double> a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(norm_fro(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_max(a), 4.0);
}

// Property-style sweep: LU and Cholesky solve quality across sizes.
class FactorSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactorSweep, LuResidualSmall) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  Matrix<double> a = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;
  std::vector<double> x(n), b(n, 0.0);
  rng.fill_uniform(x);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) b[i] += a(i, j) * x[j];
  Lu<double> f(a);
  f.solve_inplace(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x[i], 1e-8);
}

TEST_P(FactorSweep, EigReconstructsMatrix) {
  const std::size_t n = GetParam();
  Rng rng(200 + n);
  Matrix<double> a = random_symmetric(n, rng);
  EigResult r = sym_eig(a);
  // A = V D V^T
  Matrix<double> vd = r.vectors;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) vd(i, j) *= r.values[j];
  Matrix<double> vt = r.vectors.transposed();
  Matrix<double> rec(n, n);
  gemm_nn(1.0, vd, vt, 0.0, rec);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rec(i, j), a(i, j), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactorSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

}  // namespace
}  // namespace rsrpa::la
