#include "la/blas.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "sched/parallel_for.hpp"

namespace rsrpa::la {

namespace {

// Cache-block sizes chosen so a (KB x NB) panel of B and the streamed
// columns of A fit comfortably in L2 for double and complex<double>.
constexpr std::size_t kNB = 64;
constexpr std::size_t kKB = 256;

// Minimum mul-adds worth one sched task. Below this the GEMM runs as a
// plain loop on the caller; above it, column ranges fan out on the global
// pool. Column-disjoint writes keep the result bitwise identical to the
// serial path at every thread count.
constexpr double kMinFlopsPerTask = 4.0e6;

std::size_t column_grain(std::size_t flops_per_col) {
  const double per_col = std::max<double>(static_cast<double>(flops_per_col), 1.0);
  const double cols = kMinFlopsPerTask / per_col;
  return cols <= 1.0 ? 1 : static_cast<std::size_t>(cols);
}

template <typename T>
constexpr bool kIsComplex = !std::is_same_v<T, real_t<T>>;

// a * b and c + a * b with the complex product spelled as explicit fma:
// one rounding sequence in every inlining context. A plain `c += a * b`
// on std::complex is contracted however the optimizer sees fit at each
// inlined copy, so the serial body and a task's copy of one GEMM could
// round differently (a thread-count dependence of the result).
template <typename T>
inline T mul(T a, T b) {
  if constexpr (kIsComplex<T>) {
    return T(std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
             std::fma(a.real(), b.imag(), a.imag() * b.real()));
  } else {
    return a * b;
  }
}

template <typename T>
inline T madd(T c, T a, T b) {
  if constexpr (kIsComplex<T>) {
    const auto re = std::fma(a.real(), b.real(), c.real());
    const auto im = std::fma(a.real(), b.imag(), c.imag());
    return T(std::fma(-a.imag(), b.imag(), re),
             std::fma(a.imag(), b.real(), im));
  } else {
    return std::fma(a, b, c);
  }
}

// ccol[0, m) += acol[0, m) * b. Complex columns run in the interleaved
// real view with the product spelled as explicit fma: std::complex's
// operator* carries a NaN-recovery branch that blocks vectorization, and
// explicit fma pins one rounding sequence per element, so the vector body
// and the scalar tail give the same bits in any inlining context.
template <typename T>
inline void column_axpy(const T* acol, T b, T* ccol, std::size_t m) {
  if constexpr (kIsComplex<T>) {
    using R = real_t<T>;
    const R br = b.real(), bi = b.imag(), nbi = -b.imag();
    const R* ra = reinterpret_cast<const R*>(acol);
    R* rc = reinterpret_cast<R*>(ccol);
    for (std::size_t i = 0; i < 2 * m; i += 2) {
      const R ar = ra[i], ai = ra[i + 1];
      rc[i] = std::fma(ai, nbi, std::fma(ar, br, rc[i]));
      rc[i + 1] = std::fma(ai, br, std::fma(ar, bi, rc[i + 1]));
    }
  } else {
    for (std::size_t i = 0; i < m; ++i) ccol[i] += acol[i] * b;
  }
}

template <typename T>
void gemm_nn_impl(T alpha, const Matrix<T>& a, const Matrix<T>& b, T beta,
                  Matrix<T>& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  RSRPA_REQUIRE(b.rows() == k && c.rows() == m && c.cols() == n);
  if (beta != T{1}) {
    if (beta == T{0})
      c.zero();
    else
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < m; ++i) c(i, j) *= beta;
  }
  // Column-major friendly ordering: for each (jj, kk) panel, stream down
  // columns of C and A. Tasks own disjoint column ranges (>= one kNB
  // panel), so each output column sees the same FP sequence as the
  // serial loop regardless of thread count.
  const std::size_t grain = std::max(kNB, column_grain(m * k));
  sched::parallel_for_range(0, n, grain, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t jj = cb; jj < ce; jj += kNB) {
      const std::size_t jend = std::min(jj + kNB, ce);
      for (std::size_t kk = 0; kk < k; kk += kKB) {
        const std::size_t kend = std::min(kk + kKB, k);
        for (std::size_t j = jj; j < jend; ++j) {
          for (std::size_t p = kk; p < kend; ++p) {
            const T bpj = mul(alpha, b(p, j));
            if (bpj == T{0}) continue;
            column_axpy(&a(0, p), bpj, &c(0, j), m);
          }
        }
      }
    }
  });
}

enum class Conj { No, Yes };

// Dot product of two contiguous runs with eight independent accumulator
// chains. A single-accumulator loop is FMA-latency bound (~1 flop per
// 4-cycle dependency step); eight chains keep the pipeline full and map
// onto SIMD accumulators. The reduction order is fixed in code, so the
// result is deterministic. Complex runs use the interleaved real view and
// explicit fma (see column_axpy): s[2c], s[2c + 1] are the real and
// imaginary parts of chain c.
template <typename T, Conj kConj>
T chunk_dot(const T* x, const T* y, std::size_t len) {
  if constexpr (kIsComplex<T>) {
    using R = real_t<T>;
    const R* rx = reinterpret_cast<const R*>(x);
    const R* ry = reinterpret_cast<const R*>(y);
    R s[16] = {};
    // One complex multiply-add into chain c: s_c += op(x_p) * y_p.
    auto madd = [&](std::size_t c, std::size_t p) {
      const R xr = rx[2 * p], yr = ry[2 * p], yi = ry[2 * p + 1];
      const R xi = kConj == Conj::Yes ? -rx[2 * p + 1] : rx[2 * p + 1];
      s[2 * c] = std::fma(-xi, yi, std::fma(xr, yr, s[2 * c]));
      s[2 * c + 1] = std::fma(xi, yr, std::fma(xr, yi, s[2 * c + 1]));
    };
    std::size_t p = 0;
    for (; p + 8 <= len; p += 8)
      for (std::size_t c = 0; c < 8; ++c) madd(c, p + c);
    for (; p < len; ++p) madd(0, p);
    auto reduce = [&](std::size_t o) {
      return ((s[o] + s[o + 2]) + (s[o + 4] + s[o + 6])) +
             ((s[o + 8] + s[o + 10]) + (s[o + 12] + s[o + 14]));
    };
    return T(reduce(0), reduce(1));
  } else {
    T s0{}, s1{}, s2{}, s3{}, s4{}, s5{}, s6{}, s7{};
    std::size_t p = 0;
    for (; p + 8 <= len; p += 8) {
      s0 += x[p] * y[p];
      s1 += x[p + 1] * y[p + 1];
      s2 += x[p + 2] * y[p + 2];
      s3 += x[p + 3] * y[p + 3];
      s4 += x[p + 4] * y[p + 4];
      s5 += x[p + 5] * y[p + 5];
      s6 += x[p + 6] * y[p + 6];
      s7 += x[p + 7] * y[p + 7];
    }
    for (; p < len; ++p) s0 += x[p] * y[p];
    return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
  }
}

template <typename T, Conj kConj>
void gemm_tn_impl(T alpha, const Matrix<T>& a, const Matrix<T>& b, T beta,
                  Matrix<T>& c) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  RSRPA_REQUIRE(b.rows() == k && c.rows() == m && c.cols() == n);
  // Each C(i, j) is a dot product of two contiguous columns. For large k
  // a naive dot sweep re-streams all of A from memory once per output
  // column, so accumulate over kKB-length chunks of the shared dimension
  // instead: an (kMB x kKB) panel of A stays in L2 and is reused across
  // the task's whole column range. Per output element the chunk partial
  // sums are added in ascending-p order — one fixed FP sequence — and
  // tasks own disjoint column ranges, so the result is bitwise identical
  // at every thread count.
  constexpr std::size_t kMB = 64;
  const std::size_t grain = column_grain(m * k);
  sched::parallel_for_range(0, n, grain, [&](std::size_t jb, std::size_t je) {
    for (std::size_t j = jb; j < je; ++j) {
      T* ccol = &c(0, j);
      if (beta == T{0})
        for (std::size_t i = 0; i < m; ++i) ccol[i] = T{};
      else if (beta != T{1})
        for (std::size_t i = 0; i < m; ++i) ccol[i] = mul(ccol[i], beta);
    }
    for (std::size_t kk = 0; kk < k; kk += kKB) {
      const std::size_t klen = std::min(kKB, k - kk);
      for (std::size_t ii = 0; ii < m; ii += kMB) {
        const std::size_t iend = std::min(ii + kMB, m);
        for (std::size_t j = jb; j < je; ++j) {
          const T* bcol = &b(kk, j);
          T* ccol = &c(0, j);
          for (std::size_t i = ii; i < iend; ++i)
            ccol[i] = madd(ccol[i], alpha,
                           chunk_dot<T, kConj>(&a(kk, i), bcol, klen));
        }
      }
    }
  });
}

// One tile of the syrk_tn lower triangle: for rows i0 + r (r < kR) and
// columns j0 + q (q < kC) with i >= j, C(i, j) += alpha * the dot product
// of A's columns i and j over the rows [kk, kk + klen). Every entry sums
// over the same four chains (chain = offset mod 4) with explicit fma,
// combined as (s0 + s1) + (s2 + s3), so its bits do not depend on the tile
// shape or on which task computes it. A 4 x 4 tile issues 16 independent
// chains from 8 column loads per step, where a single dot product issues
// one chain from two.
#if defined(__AVX2__) && defined(__FMA__)
// Each entry's four chains are the four lanes of one __m256d held in a
// register: a step loads kR + kC contiguous 4-double slices of A and
// issues kR * kC lane-wise fmas (each lane one correctly rounded fma, the
// same bits as std::fma). A 4 x 4 tile keeps its 16 accumulators and 8
// operands in 24 of AVX-512's 32 vector registers.

// (s0 + s1) + (s2 + s3) over the lanes of v.
inline double chain_sum(__m256d v) {
  const __m128d h = _mm_hadd_pd(_mm256_castpd256_pd128(v),
                                _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(h) + _mm_cvtsd_f64(_mm_unpackhi_pd(h, h));
}

// Lane r holds (s0 + s1) + (s2 + s3) of a, b, c, d in turn.
inline __m256d chain_sums(__m256d a, __m256d b, __m256d c, __m256d d) {
  const __m256d ab = _mm256_hadd_pd(a, b);  // a01 b01 a23 b23
  const __m256d cd = _mm256_hadd_pd(c, d);  // c01 d01 c23 d23
  return _mm256_add_pd(_mm256_permute2f128_pd(ab, cd, 0x20),
                       _mm256_permute2f128_pd(ab, cd, 0x31));
}

// Lanes l with lo <= l < hi set, as a maskload/maskstore mask.
inline __m256i lanes_in(std::size_t lo, std::size_t hi) {
  const __m256i l = _mm256_setr_epi64x(0, 1, 2, 3);
  return _mm256_and_si256(
      _mm256_cmpgt_epi64(l, _mm256_set1_epi64x(static_cast<long long>(lo) - 1)),
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(hi)), l));
}

template <std::size_t kR, std::size_t kC>
void syrk_tile(const Matrix<double>& a, std::size_t kk, std::size_t klen,
               std::size_t i0, std::size_t j0, double alpha,
               Matrix<double>& c) {
  const std::size_t lda = a.rows();
  const double* x = &a(kk, i0);
  const double* y = &a(kk, j0);
  // The unroll pragmas let GCC 12 scalarize s: without them it keeps the
  // array in memory and stores all 16 accumulators on every step.
  __m256d s[kR][kC];
  for (std::size_t r = 0; r < kR; ++r)
    for (std::size_t q = 0; q < kC; ++q) s[r][q] = _mm256_setzero_pd();
  // The tail goes to chains 0, 1, 2 in turn, as one more step padded with
  // zeros (masked-off lanes load +0, and fma(0, 0, s) adds nothing).
  for (std::size_t p = 0; p < klen; p += 4) {
    __m256d xv[kR], yv[kC];
    if (p + 4 <= klen) {
      for (std::size_t r = 0; r < kR; ++r)
        xv[r] = _mm256_loadu_pd(x + r * lda + p);
      for (std::size_t q = 0; q < kC; ++q)
        yv[q] = _mm256_loadu_pd(y + q * lda + p);
    } else {
      const __m256i in = lanes_in(0, klen - p);
      for (std::size_t r = 0; r < kR; ++r)
        xv[r] = _mm256_maskload_pd(x + r * lda + p, in);
      for (std::size_t q = 0; q < kC; ++q)
        yv[q] = _mm256_maskload_pd(y + q * lda + p, in);
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kR; ++r)
#pragma GCC unroll 4
      for (std::size_t q = 0; q < kC; ++q)
        s[r][q] = _mm256_fmadd_pd(xv[r], yv[q], s[r][q]);
  }
  if constexpr (kR == 4) {
    // Column j0 + q's four rows are contiguous in C: one fma per column,
    // stored only to the lanes on or below the diagonal.
    const __m256d av = _mm256_set1_pd(alpha);
#pragma GCC unroll 4
    for (std::size_t q = 0; q < kC; ++q) {
      double* cq = &c(i0, j0 + q);
      const __m256d sum = chain_sums(s[0][q], s[1][q], s[2][q], s[3][q]);
      const __m256d out = _mm256_fmadd_pd(av, sum, _mm256_loadu_pd(cq));
      if (i0 >= j0 + q)
        _mm256_storeu_pd(cq, out);
      else
        _mm256_maskstore_pd(cq, lanes_in(j0 + q - i0, 4), out);
    }
  } else {
    for (std::size_t r = 0; r < kR; ++r)
      for (std::size_t q = 0; q < kC; ++q)
        if (i0 + r >= j0 + q)
          c(i0 + r, j0 + q) =
              std::fma(alpha, chain_sum(s[r][q]), c(i0 + r, j0 + q));
  }
}
#else
// Fallback for targets without AVX2 and FMA: the same chains as scalars.
template <std::size_t kR, std::size_t kC>
void syrk_tile(const Matrix<double>& a, std::size_t kk, std::size_t klen,
               std::size_t i0, std::size_t j0, double alpha,
               Matrix<double>& c) {
  // Columns addressed from one base and a stride (not through an array of
  // pointers), which lets the compiler keep the chains in registers.
  const std::size_t lda = a.rows();
  const double* x = &a(kk, i0);
  const double* y = &a(kk, j0);
  double s[kR][kC][4] = {};
  std::size_t p = 0;
  for (; p + 4 <= klen; p += 4)
    for (std::size_t r = 0; r < kR; ++r)
      for (std::size_t q = 0; q < kC; ++q)
        for (std::size_t l = 0; l < 4; ++l)
          s[r][q][l] = std::fma(x[r * lda + p + l], y[q * lda + p + l],
                                s[r][q][l]);
  // The tail goes to chains 0, 1, 2 in turn, as one more step padded with
  // zeros (fma(0, 0, s) adds nothing): every chain index stays a
  // compile-time constant.
  if (p < klen) {
    double xt[kR][4], yt[kC][4];
    for (std::size_t l = 0; l < 4; ++l) {
      const bool in = p + l < klen;
      for (std::size_t r = 0; r < kR; ++r)
        xt[r][l] = in ? x[r * lda + p + l] : 0.0;
      for (std::size_t q = 0; q < kC; ++q)
        yt[q][l] = in ? y[q * lda + p + l] : 0.0;
    }
    for (std::size_t r = 0; r < kR; ++r)
      for (std::size_t q = 0; q < kC; ++q)
        for (std::size_t l = 0; l < 4; ++l)
          s[r][q][l] = std::fma(xt[r][l], yt[q][l], s[r][q][l]);
  }
  double sum[kR][kC];
  for (std::size_t r = 0; r < kR; ++r)
    for (std::size_t q = 0; q < kC; ++q)
      sum[r][q] = (s[r][q][0] + s[r][q][1]) + (s[r][q][2] + s[r][q][3]);
  for (std::size_t r = 0; r < kR; ++r)
    for (std::size_t q = 0; q < kC; ++q)
      if (i0 + r >= j0 + q)
        c(i0 + r, j0 + q) = std::fma(alpha, sum[r][q], c(i0 + r, j0 + q));
}
#endif

// dst[0, m) = src[0, m) + acol[0, m) * b: column_axpy on a copy of src,
// with the copy folded into the same pass (identical per-element fma).
template <typename T>
inline void column_axpy_from(const T* acol, T b, const T* src, T* dst,
                             std::size_t m) {
  using R = real_t<T>;
  const R br = b.real(), bi = b.imag(), nbi = -b.imag();
  const R* ra = reinterpret_cast<const R*>(acol);
  const R* rs = reinterpret_cast<const R*>(src);
  R* rd = reinterpret_cast<R*>(dst);
  for (std::size_t i = 0; i < 2 * m; i += 2) {
    const R ar = ra[i], ai = ra[i + 1];
    rd[i] = std::fma(ai, nbi, std::fma(ar, br, rs[i]));
    rd[i + 1] = std::fma(ai, br, std::fma(ar, bi, rs[i + 1]));
  }
}

// One entry of gemm_tn(1, a, b, 0, c) for columns x of a and y of b, with
// the same chunking and accumulation as gemm_tn_impl.
template <typename T>
T gram_entry(const T* x, const T* y, std::size_t k) {
  T c{};
  for (std::size_t kk = 0; kk < k; kk += kKB)
    c = madd(c, T{1}, chunk_dot<T, Conj::No>(x + kk, y + kk,
                                             std::min(kKB, k - kk)));
  return c;
}

// Sum of squares of a column (complex ones in the real view), in double,
// over 32 independent chains combined in a fixed order. A single chain is
// add-latency bound; 32 fill four AVX-512 accumulators.
template <typename T>
double column_sumsq(const T* x, std::size_t m) {
  using R = real_t<T>;
  constexpr std::size_t kChains = 32;
  const R* r = reinterpret_cast<const R*>(x);
  const std::size_t len = (kIsComplex<T> ? 2 : 1) * m;
  double acc[kChains] = {};
  std::size_t i = 0;
  for (; i + kChains <= len; i += kChains)
    for (std::size_t c = 0; c < kChains; ++c) {
      const double v = r[i + c];
      acc[c] = std::fma(v, v, acc[c]);
    }
  for (std::size_t c = 0; i < len; ++i, ++c) {
    const double v = r[i];
    acc[c] = std::fma(v, v, acc[c]);
  }
  for (std::size_t h = kChains / 2; h > 0; h /= 2)
    for (std::size_t c = 0; c < h; ++c) acc[c] += acc[c + h];
  return acc[0];
}

template <typename T>
double cocg_update_impl(const Matrix<T>& p, const Matrix<T>& u,
                        const Matrix<T>& alpha, Matrix<T>& y, Matrix<T>& w,
                        Matrix<T>& rho) {
  const std::size_t n = p.rows(), s = p.cols();
  RSRPA_REQUIRE(u.rows() == n && u.cols() == s && y.rows() == n &&
                y.cols() == s && w.rows() == n && w.cols() == s &&
                alpha.rows() == s && alpha.cols() == s && rho.rows() == s &&
                rho.cols() == s);
  // Per-column |w|^2 slots, summed in ascending column order at the end.
  constexpr std::size_t kStack = 64;
  double stack_sq[kStack];
  std::vector<double> heap_sq;
  double* sq = stack_sq;
  if (s > kStack) {
    heap_sq.resize(s);
    sq = heap_sq.data();
  }
  const std::size_t grain = column_grain(n * s);
  // Y += P alpha, W -= U alpha: per column the gemm_nn sequence (ascending
  // q, zero coefficients skipped), column-disjoint across tasks.
  sched::parallel_for_range(0, s, grain, [&](std::size_t jb, std::size_t je) {
    for (std::size_t j = jb; j < je; ++j)
      for (std::size_t q = 0; q < s; ++q) {
        const T ya = mul(T{1}, alpha(q, j));
        if (ya != T{0}) column_axpy(&p(0, q), ya, &y(0, j), n);
        const T wa = mul(T{-1}, alpha(q, j));
        if (wa != T{0}) column_axpy(&u(0, q), wa, &w(0, j), n);
      }
  });
  // rho = W^T W once every column of W is final.
  sched::parallel_for_range(0, s, grain, [&](std::size_t jb, std::size_t je) {
    for (std::size_t j = jb; j < je; ++j) {
      for (std::size_t i = 0; i < s; ++i)
        rho(i, j) = gram_entry(&w(0, i), &w(0, j), n);
      sq[j] = column_sumsq(&w(0, j), n);
    }
  });
  double sum = 0.0;
  for (std::size_t j = 0; j < s; ++j) sum += sq[j];
  return std::sqrt(sum);
}

template <typename T>
void cocg_direction_impl(const Matrix<T>& w, const Matrix<T>& p,
                         const Matrix<T>& beta, Matrix<T>& p_next) {
  const std::size_t n = w.rows(), s = w.cols();
  RSRPA_REQUIRE(p.rows() == n && p.cols() == s && p_next.rows() == n &&
                p_next.cols() == s && beta.rows() == s && beta.cols() == s);
  sched::parallel_for_range(0, s, column_grain(n * s), [&](std::size_t jb,
                                                           std::size_t je) {
    for (std::size_t j = jb; j < je; ++j) {
      const T* src = &w(0, j);  // p_next(:, j) starts as a copy of w(:, j)
      for (std::size_t q = 0; q < s; ++q) {
        const T bq = mul(T{1}, beta(q, j));
        if (bq == T{0}) continue;
        if (src != nullptr)
          column_axpy_from(&p(0, q), bq, src, &p_next(0, j), n);
        else
          column_axpy(&p(0, q), bq, &p_next(0, j), n);
        src = nullptr;
      }
      if (src != nullptr) std::copy(src, src + n, &p_next(0, j));
    }
  });
}

// Column sums of squares added in ascending column order: cocg_update's
// norm of W is this same sequence.
template <typename T>
double norm_fro_impl(const Matrix<T>& a) {
  double sum = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    sum += column_sumsq(a.data() + j * a.rows(), a.rows());
  return std::sqrt(sum);
}

}  // namespace

double dot(std::span<const double> x, std::span<const double> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

cplx dot_u(std::span<const cplx> x, std::span<const cplx> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  cplx sum{};
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

cplxf dot_u(std::span<const cplxf> x, std::span<const cplxf> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  cplxf sum{};
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

cplx dot_c(std::span<const cplx> x, std::span<const cplx> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  cplx sum{};
  for (std::size_t i = 0; i < x.size(); ++i) sum += std::conj(x[i]) * y[i];
  return sum;
}

double nrm2(std::span<const double> x) {
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return std::sqrt(sum);
}

double nrm2(std::span<const cplx> x) {
  double sum = 0.0;
  for (const cplx& v : x) sum += std::norm(v);
  return std::sqrt(sum);
}

double nrm2(std::span<const cplxf> x) {
  double sum = 0.0;
  for (const cplxf& v : x) sum += static_cast<double>(std::norm(v));
  return std::sqrt(sum);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void axpy(cplx alpha, std::span<const cplx> x, std::span<cplx> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void axpy(cplxf alpha, std::span<const cplxf> x, std::span<cplxf> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scal(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

void scal(cplx alpha, std::span<cplx> x) {
  for (cplx& v : x) v *= alpha;
}

void scal(cplxf alpha, std::span<cplxf> x) {
  for (cplxf& v : x) v *= alpha;
}

void gemm_nn(double alpha, const Matrix<double>& a, const Matrix<double>& b,
             double beta, Matrix<double>& c) {
  gemm_nn_impl(alpha, a, b, beta, c);
}

void gemm_nn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c) {
  gemm_nn_impl(alpha, a, b, beta, c);
}

void gemm_nn(cplxf alpha, const Matrix<cplxf>& a, const Matrix<cplxf>& b,
             cplxf beta, Matrix<cplxf>& c) {
  gemm_nn_impl(alpha, a, b, beta, c);
}

void gemm_tn(double alpha, const Matrix<double>& a, const Matrix<double>& b,
             double beta, Matrix<double>& c) {
  gemm_tn_impl<double, Conj::No>(alpha, a, b, beta, c);
}

void gemm_tn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c) {
  gemm_tn_impl<cplx, Conj::No>(alpha, a, b, beta, c);
}

void gemm_tn(cplxf alpha, const Matrix<cplxf>& a, const Matrix<cplxf>& b,
             cplxf beta, Matrix<cplxf>& c) {
  gemm_tn_impl<cplxf, Conj::No>(alpha, a, b, beta, c);
}

void gemm_hn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c) {
  gemm_tn_impl<cplx, Conj::Yes>(alpha, a, b, beta, c);
}

void syrk_tn(double alpha, const Matrix<double>& a, double beta,
             Matrix<double>& c) {
  const std::size_t k = a.rows(), m = a.cols();
  RSRPA_REQUIRE(c.rows() == m && c.cols() == m);
  // Columns go in blocks of four. Block b's lower-triangle work is
  // proportional to m - 4b, so one work item pairs block t with block
  // nb - 1 - t and every item costs about the same 4 m k mul-adds. Items
  // write disjoint columns of the lower triangle and, when mirroring,
  // disjoint rows of the upper one.
  constexpr std::size_t kT = 4;
  const std::size_t nb = (m + kT - 1) / kT;
  const std::size_t items = (nb + 1) / 2;
  const std::size_t grain = column_grain(kT * m * std::max<std::size_t>(k, 1));
  sched::parallel_for_range(0, items, grain, [&](std::size_t tb,
                                                 std::size_t te) {
    // Block t and its partner nb - 1 - t (the middle block has none).
    auto each_block = [&](auto&& body) {
      for (std::size_t t = tb; t < te; ++t) {
        body(kT * t);
        if (nb - 1 - t != t) body(kT * (nb - 1 - t));
      }
    };
    each_block([&](std::size_t j0) {
      for (std::size_t j = j0; j < std::min(j0 + kT, m); ++j) {
        double* ccol = &c(0, j);
        if (beta == 0.0)
          std::fill(ccol + j, ccol + m, 0.0);
        else if (beta != 1.0)
          for (std::size_t i = j; i < m; ++i) ccol[i] *= beta;
      }
    });
    // Chunks of the shared dimension outermost, as in gemm_tn: the
    // (kKB x m) panel of A stays in cache across the item's blocks.
    for (std::size_t kk = 0; kk < k; kk += kKB) {
      const std::size_t klen = std::min(kKB, k - kk);
      each_block([&](std::size_t j0) {
        const std::size_t nc = std::min(kT, m - j0);
        for (std::size_t i0 = j0; i0 < m; i0 += kT) {
          const std::size_t nr = std::min(kT, m - i0);
          if (nr == kT && nc == kT) {
            syrk_tile<kT, kT>(a, kk, klen, i0, j0, alpha, c);
            continue;
          }
          for (std::size_t r = 0; r < nr; ++r)
            for (std::size_t q = 0; q < nc; ++q)
              if (i0 + r >= j0 + q)
                syrk_tile<1, 1>(a, kk, klen, i0 + r, j0 + q, alpha, c);
        }
      });
    }
    each_block([&](std::size_t j0) {
      const std::size_t jend = std::min(j0 + kT, m);
      for (std::size_t i = j0 + 1; i < m; ++i)
        for (std::size_t j = j0; j < jend && j < i; ++j) c(j, i) = c(i, j);
    });
  });
}

double cocg_update(const Matrix<cplx>& p, const Matrix<cplx>& u,
                   const Matrix<cplx>& alpha, Matrix<cplx>& y,
                   Matrix<cplx>& w, Matrix<cplx>& rho) {
  return cocg_update_impl(p, u, alpha, y, w, rho);
}

double cocg_update(const Matrix<cplxf>& p, const Matrix<cplxf>& u,
                   const Matrix<cplxf>& alpha, Matrix<cplxf>& y,
                   Matrix<cplxf>& w, Matrix<cplxf>& rho) {
  return cocg_update_impl(p, u, alpha, y, w, rho);
}

void cocg_direction(const Matrix<cplx>& w, const Matrix<cplx>& p,
                    const Matrix<cplx>& beta, Matrix<cplx>& p_next) {
  cocg_direction_impl(w, p, beta, p_next);
}

void cocg_direction(const Matrix<cplxf>& w, const Matrix<cplxf>& p,
                    const Matrix<cplxf>& beta, Matrix<cplxf>& p_next) {
  cocg_direction_impl(w, p, beta, p_next);
}

double norm_fro(const Matrix<double>& a) { return norm_fro_impl(a); }
double norm_fro(const Matrix<cplx>& a) { return norm_fro_impl(a); }
double norm_fro(const Matrix<cplxf>& a) { return norm_fro_impl(a); }

double norm_max(const Matrix<double>& a) {
  double mx = 0.0;
  const double* p = a.data();
  for (std::size_t i = 0; i < a.size(); ++i) mx = std::max(mx, std::abs(p[i]));
  return mx;
}

}  // namespace rsrpa::la
