// Hand-rolled BLAS-1/2/3 kernels.
//
// No vendor BLAS is available, so the library carries its own kernels.
// The GEMM variants are cache-blocked and, above a
// flop-count threshold, fan column tiles out on the sched runtime
// (sched::parallel_for over disjoint output-column ranges — bitwise
// identical to the serial loop at any thread count); that is sufficient
// for the tall-and-skinny shapes dominating this code (n_d x s with
// s <= a few hundred).
//
// Transpose conventions: `t` means plain transpose WITHOUT conjugation.
// COCG's conjugate-orthogonality products (W^T W, P^T A P) need the
// unconjugated bilinear form, which is why these kernels exist separately
// from the Hermitian (`h`) forms.
#pragma once

#include <complex>
#include <span>

#include "la/matrix.hpp"

namespace rsrpa::la {

// ---------- BLAS-1 on spans ----------

/// Euclidean dot product x.y (no conjugation).
double dot(std::span<const double> x, std::span<const double> y);
/// Unconjugated bilinear product x^T y for complex vectors.
cplx dot_u(std::span<const cplx> x, std::span<const cplx> y);
cplxf dot_u(std::span<const cplxf> x, std::span<const cplxf> y);
/// Conjugated inner product x^H y.
cplx dot_c(std::span<const cplx> x, std::span<const cplx> y);

double nrm2(std::span<const double> x);
double nrm2(std::span<const cplx> x);
double nrm2(std::span<const cplxf> x);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);
void axpy(cplx alpha, std::span<const cplx> x, std::span<cplx> y);
void axpy(cplxf alpha, std::span<const cplxf> x, std::span<cplxf> y);

// ---------- BLAS-3 ----------

/// C = alpha * A * B + beta * C      (A: m x k, B: k x n, C: m x n)
void gemm_nn(double alpha, const Matrix<double>& a, const Matrix<double>& b,
             double beta, Matrix<double>& c);
void gemm_nn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c);
void gemm_nn(cplxf alpha, const Matrix<cplxf>& a, const Matrix<cplxf>& b,
             cplxf beta, Matrix<cplxf>& c);

/// C = alpha * A^T * B + beta * C    (A: k x m, B: k x n, C: m x n)
/// For complex T this is the UNCONJUGATED transpose.
void gemm_tn(double alpha, const Matrix<double>& a, const Matrix<double>& b,
             double beta, Matrix<double>& c);
void gemm_tn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c);
void gemm_tn(cplxf alpha, const Matrix<cplxf>& a, const Matrix<cplxf>& b,
             cplxf beta, Matrix<cplxf>& c);

/// C = alpha * A^H * B + beta * C    (conjugated transpose)
void gemm_hn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c);

/// Symmetric rank-k update C = alpha * A^T * A + beta * C (A: k x m,
/// C: m x m). Only the lower triangle (i >= j) is computed, from the lower
/// triangle of C; the upper triangle is then overwritten by its mirror, so
/// C comes out exactly symmetric. Half the mul-adds of gemm_tn(alpha, a, a,
/// beta, c), to which it agrees to rounding (a different summation order,
/// pinned by explicit fma, and bitwise identical at every thread count).
void syrk_tn(double alpha, const Matrix<double>& a, double beta,
             Matrix<double>& c);

// ---------- Block COCG step ----------

/// The block COCG update of one Krylov iteration in one call:
///   Y += P alpha;  W -= U alpha;  rho = W^T W;  returns ||W||_F.
/// Y, W and rho are bitwise equal to gemm_nn(1, p, alpha, 1, y),
/// gemm_nn(-1, u, alpha, 1, w) and gemm_tn(1, w, w, 0, rho) (each column
/// of W is final before the Gram dots read it), and the norm is bitwise
/// norm_fro(w).
double cocg_update(const Matrix<cplx>& p, const Matrix<cplx>& u,
                   const Matrix<cplx>& alpha, Matrix<cplx>& y,
                   Matrix<cplx>& w, Matrix<cplx>& rho);
double cocg_update(const Matrix<cplxf>& p, const Matrix<cplxf>& u,
                   const Matrix<cplxf>& alpha, Matrix<cplxf>& y,
                   Matrix<cplxf>& w, Matrix<cplxf>& rho);

/// The block COCG direction P_next = W + P beta in one pass; bitwise equal
/// to `p_next = w; gemm_nn(1, p, beta, 1, p_next)`.
void cocg_direction(const Matrix<cplx>& w, const Matrix<cplx>& p,
                    const Matrix<cplx>& beta, Matrix<cplx>& p_next);
void cocg_direction(const Matrix<cplxf>& w, const Matrix<cplxf>& p,
                    const Matrix<cplxf>& beta, Matrix<cplxf>& p_next);

/// Frobenius norm, accumulated in double over 32 chains per column.
double norm_fro(const Matrix<double>& a);
double norm_fro(const Matrix<cplx>& a);
double norm_fro(const Matrix<cplxf>& a);

/// Largest absolute entry.
double norm_max(const Matrix<double>& a);

}  // namespace rsrpa::la
