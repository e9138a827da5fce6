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
// Every sum is one chain in EISPACK's order, spelled with explicit fma,
// so the rounding does not depend on the compiler's contraction or
// vectorization choices. The reduction runs on the calling thread;
// sym_eig and sym_eigvals share it.
//
// The vector phases (sym_eig, tridiag_eig) change only which lane does
// which operation, never the operations, so the results are bitwise the
// same at every lane count:
//   - accumulation of Q: column j of Q is e_j taken through the steps
//     i > j with h_i != 0 (g = u_i . q[0:i], then q[0:i] -= g v_i), so
//     columns are independent. Each lane takes a range of whole 8-column
//     blocks of about equal work; a block's dots run as eight interleaved
//     chains, then each column takes its axpy. Q overwrites the u_i the
//     reduction left in z, so they are read from a packed copy, and each
//     lane forms v_i = u_i / h_i from it exactly as the reduction did;
//   - tql2: one fork for the whole QL iteration. Every lane replays the
//     scalar recurrence on its own copy of d and e (the rotations depend
//     on nothing else) and rotates its own block of rows of Z, held in a
//     private buffer with line-aligned columns and copied back at the end.
//     Row blocks of the shared Z would share a cache line at every block
//     edge of every column, enough to make the fan-out slower than one
//     lane.
// Below order 128, and on a one-lane pool, both run as one range in place:
// no fork and no copies.
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
