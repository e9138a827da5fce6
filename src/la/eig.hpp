// Dense symmetric eigensolvers.
//
// The stack is the classical EISPACK pair: Householder tridiagonalization
// with accumulated transforms (tred2) followed by the implicit-shift QL
// iteration (tql2). The generalized solver reduces H_s Q = M_s Q D via
// Cholesky of M_s, exactly the reduction the paper performs with
// ScaLAPACK in Algorithm 2 line 5 / Algorithm 6 lines 9 and 16.
//
// tred2 runs EISPACK's steps in column order, so every inner loop is
// stride-1 in the column-major Matrix (EISPACK walks rows of the lower
// triangle, stride n here). Step i, the reduction of row i:
//   - copy the Householder row into a contiguous vector u;
//   - form p = A u over the active lower triangle a block of eight columns
//     at a time: each column k adds A(k:, k) u[k] down p (an axpy) and
//     then continues p[k] with A(k+1:, k) . u[k+1:] (a dot), the block's
//     eight dots running as eight interleaved chains;
//   - apply the rank-2 update A -= u q^T + q u^T down each column.
// The accumulation of Q (sym_eig only) dots u with eight columns of the
// leading block at a time, again as eight interleaved chains, and then
// updates each column. Every sum is one chain in EISPACK's order, spelled
// with explicit fma, so the rounding does not depend on the compiler's
// contraction or vectorization choices. The reduction runs on the calling
// thread (a fan-out of these O(n^2)-per-step loops over the pool measured
// slower), so the results are the same at every lane count. sym_eig and
// sym_eigvals share the one tred2.
//
// Eigenvector signs are arbitrary and rounding-sensitive: a last-bit
// change in T can flip the sign of a converged column in tql2.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace rsrpa::la {

struct EigResult {
  std::vector<double> values;  ///< ascending
  Matrix<double> vectors;      ///< column j pairs with values[j]
};

/// Eigendecomposition of a symmetric matrix (only the lower triangle is
/// referenced). Eigenvalues ascending, eigenvectors orthonormal.
EigResult sym_eig(const Matrix<double>& a);

/// Eigenvalues only (cheaper: no transform accumulation).
std::vector<double> sym_eigvals(const Matrix<double>& a);

/// Generalized symmetric-definite problem A x = lambda B x with B SPD.
/// Returned vectors are B-orthonormal: X^T B X = I.
EigResult sym_eig_gen(const Matrix<double>& a, const Matrix<double>& b);

/// Eigendecomposition of a symmetric tridiagonal matrix given its diagonal
/// `d` and subdiagonal `e` (e[i] couples rows i and i+1; e.size()==d.size()-1).
/// Used directly by Lanczos quadrature.
EigResult tridiag_eig(std::vector<double> d, std::vector<double> e);

/// Eigenvalues of a symmetric tridiagonal matrix, ascending.
std::vector<double> tridiag_eigvals(std::vector<double> d, std::vector<double> e);

}  // namespace rsrpa::la
