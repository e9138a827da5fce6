// LU factorization with partial pivoting, real and complex.
//
// Used for the small s x s solves inside block COCG (lines 8 and 12 of
// Algorithm 3) and for the dense direct baseline. The factorization
// exposes a cheap condition indicator (pivot growth ratio) that block
// COCG uses to detect near-breakdown of the conjugacy matrix mu_j.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace rsrpa::la {

template <typename T>
class Lu {
 public:
  /// Empty factorization; call factor() before solving.
  Lu() = default;

  /// Factor a (copied) square matrix. Throws NumericalBreakdown on an
  /// exactly singular pivot.
  explicit Lu(Matrix<T> a);

  /// Refactor in place for a new matrix, reusing this object's storage
  /// (the s x s solves of every block COCG iteration). Same result and
  /// throws as constructing Lu(a).
  void factor(const Matrix<T>& a);

  /// Solve A x = b in place for a single right-hand side.
  void solve_inplace(std::span<T> b) const;

  /// Solve A X = B, overwriting B with X column by column.
  void solve_inplace(Matrix<T>& b) const;

  /// |smallest pivot| / |largest pivot| — a cheap proxy for 1/cond(A).
  [[nodiscard]] double pivot_ratio() const { return pivot_ratio_; }

  /// Determinant (product of pivots with sign of the permutation).
  [[nodiscard]] T det() const;

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

 private:
  void factor_inplace();

  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
  double pivot_ratio_ = 0.0;
};

/// Convenience: X = A^{-1} B without keeping the factorization.
template <typename T>
Matrix<T> lu_solve(const Matrix<T>& a, const Matrix<T>& b) {
  Lu<T> f(a);
  Matrix<T> x = b;
  f.solve_inplace(x);
  return x;
}

extern template class Lu<double>;
extern template class Lu<cplx>;
extern template class Lu<cplxf>;

}  // namespace rsrpa::la
