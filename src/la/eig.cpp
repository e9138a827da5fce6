#include "la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>

#include "la/cholesky.hpp"

namespace rsrpa::la {

namespace {

double hypot2(double a, double b) { return std::hypot(a, b); }

// p[0, m) = A u for the symmetric A whose lower triangle is the leading
// m x m block of z, read down columns only. Column k adds A(k:m, k) u[k]
// to p[k:m] (an axpy), after which p[k] is complete up to the diagonal,
// and continues p[k] with A(k+1:m, k) . u[k+1:m] (a dot). Each p[j] is
// thus one fma chain in EISPACK's row order. Columns go in blocks of
// eight: each row's p[j] is loaded once per block, and the block's eight
// dots run as eight interleaved chains.
void symv_lower(const Matrix<double>& z, std::size_t m, const double* u,
                double* p) {
  constexpr std::size_t kB = 8;
  std::fill(p, p + m, 0.0);
  for (std::size_t k0 = 0; k0 < m; k0 += kB) {
    const std::size_t nb = std::min(kB, m - k0), kend = k0 + nb;
    const double* col[kB];
    for (std::size_t b = 0; b < nb; ++b) col[b] = &z(0, k0 + b);
    double s[kB];
    for (std::size_t b = 0; b < nb; ++b) {  // the block's own triangle
      const std::size_t k = k0 + b;
      s[b] = std::fma(col[b][k], u[k], p[k]);  // p[k]'s axpy part is done
      for (std::size_t j = k + 1; j < kend; ++j) {
        p[j] = std::fma(col[b][j], u[k], p[j]);
        s[b] = std::fma(col[b][j], u[j], s[b]);
      }
    }
    auto rows_below = [&](auto nbc) {
      for (std::size_t j = kend; j < m; ++j) {
        double pj = p[j];
        for (std::size_t b = 0; b < nbc; ++b) {
          pj = std::fma(col[b][j], u[k0 + b], pj);
          s[b] = std::fma(col[b][j], u[j], s[b]);
        }
        p[j] = pj;
      }
    };
    if (nb == kB)
      rows_below(std::integral_constant<std::size_t, kB>{});
    else
      rows_below(nb);
    for (std::size_t b = 0; b < nb; ++b) p[k0 + b] = s[b];
  }
}

// Householder reduction of a symmetric matrix to tridiagonal form with
// accumulation of the orthogonal transform (EISPACK tred2). On exit `z`
// holds the transform Q with A = Q T Q^T, `d` the diagonal of T and `e`
// the subdiagonal (e[i] couples i-1 and i; e[0] = 0).
// EISPACK's steps in column order (see eig.hpp): every loop is stride-1.
void tred2(Matrix<double>& z, std::vector<double>& d, std::vector<double>& e,
           bool want_vectors) {
  const std::size_t n = z.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (n == 0) return;
  std::vector<double> u(n), p(n);

  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1, m = i;  // the active block is m x m
    double h = 0.0;
    double scale = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      u[k] = z(i, k);
      scale += std::abs(u[k]);
    }
    if (l == 0 || scale == 0.0) {
      e[i] = u[l];
    } else {
      for (std::size_t k = 0; k < m; ++k) u[k] /= scale;
      for (std::size_t k = 0; k < m; ++k) h = std::fma(u[k], u[k], h);
      const double f = u[l];
      const double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h = std::fma(-f, g, h);
      u[l] = f - g;
      // Row i keeps u for the accumulation phase; column i (above the
      // diagonal) keeps u / h.
      for (std::size_t k = 0; k < m; ++k) z(i, k) = u[k];
      if (want_vectors)
        for (std::size_t j = 0; j < m; ++j) z(j, i) = u[j] / h;
      symv_lower(z, m, u.data(), p.data());
      double f_dot = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        p[j] /= h;
        f_dot = std::fma(p[j], u[j], f_dot);
      }
      const double hh = f_dot / (h + h);
      for (std::size_t j = 0; j < m; ++j) p[j] = std::fma(-hh, u[j], p[j]);
      // A -= u p^T + p u^T on the lower triangle, column by column.
      for (std::size_t k = 0; k < m; ++k) {
        double* col = &z(0, k);
        const double uk = u[k], pk = p[k];
        for (std::size_t j = k; j < m; ++j)
          col[j] -= std::fma(u[j], pk, p[j] * uk);
      }
    }
    d[i] = h;
  }

  if (want_vectors) d[0] = 0.0;
  e[0] = 0.0;

  for (std::size_t i = 0; i < n; ++i) {
    if (want_vectors) {
      if (d[i] != 0.0) {
        // Q[0:i, 0:i] -= (u / h) (u^T Q[0:i, 0:i]): the dots of eight
        // columns run as eight interleaved chains, then each column takes
        // its axpy.
        for (std::size_t k = 0; k < i; ++k) u[k] = z(i, k);
        const double* v = &z(0, i);
        for (std::size_t j0 = 0; j0 < i; j0 += 8) {
          const std::size_t nb = std::min<std::size_t>(8, i - j0);
          double g[8] = {};
          for (std::size_t k = 0; k < i; ++k)
            for (std::size_t b = 0; b < nb; ++b)
              g[b] = std::fma(u[k], z(k, j0 + b), g[b]);
          for (std::size_t b = 0; b < nb; ++b) {
            double* col = &z(0, j0 + b);
            for (std::size_t k = 0; k < i; ++k)
              col[k] = std::fma(-g[b], v[k], col[k]);
          }
        }
      }
      d[i] = z(i, i);
      z(i, i) = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        z(j, i) = 0.0;
        z(i, j) = 0.0;
      }
    } else {
      d[i] = z(i, i);
    }
  }
}

// Implicit-shift QL iteration on a symmetric tridiagonal matrix (EISPACK
// tql2). `d` holds the diagonal, `e` the subdiagonal shifted so e[i]
// couples i and i+1 on entry to this routine's convention below
// (we pass the tred2 layout and shift internally). If `z` is non-null its
// columns are rotated along, producing eigenvectors of the original matrix.
void tql2(std::vector<double>& d, std::vector<double>& e, Matrix<double>* z) {
  const std::size_t n = d.size();
  if (n <= 1) return;
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= eps * dd) break;
      }
      if (m != l) {
        if (++iter == 50)
          throw NumericalBreakdown("tql2: too many QL iterations");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0, c = 1.0, p = 0.0;
        bool underflow = false;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = hypot2(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            // Rotation annihilated early: recover and restart this sweep.
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (z != nullptr) {
            for (std::size_t k = 0; k < n; ++k) {
              f = (*z)(k, i + 1);
              (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
              (*z)(k, i) = c * (*z)(k, i) - s * f;
            }
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

void sort_ascending(std::vector<double>& d, Matrix<double>* z) {
  const std::size_t n = d.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return d[a] < d[b]; });
  std::vector<double> ds(n);
  for (std::size_t i = 0; i < n; ++i) ds[i] = d[order[i]];
  d = std::move(ds);
  if (z != nullptr) {
    Matrix<double> zs(z->rows(), z->cols());
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < z->rows(); ++i) zs(i, j) = (*z)(i, order[j]);
    *z = std::move(zs);
  }
}

}  // namespace

EigResult sym_eig(const Matrix<double>& a) {
  RSRPA_REQUIRE(a.rows() == a.cols());
  EigResult res;
  res.vectors = a;
  std::vector<double> e;
  tred2(res.vectors, res.values, e, /*want_vectors=*/true);
  tql2(res.values, e, &res.vectors);
  sort_ascending(res.values, &res.vectors);
  return res;
}

std::vector<double> sym_eigvals(const Matrix<double>& a) {
  RSRPA_REQUIRE(a.rows() == a.cols());
  Matrix<double> work = a;
  std::vector<double> d, e;
  tred2(work, d, e, /*want_vectors=*/false);
  tql2(d, e, nullptr);
  sort_ascending(d, nullptr);
  return d;
}

EigResult sym_eig_gen(const Matrix<double>& a, const Matrix<double>& b) {
  RSRPA_REQUIRE(a.rows() == a.cols() && b.rows() == b.cols() &&
                a.rows() == b.rows());
  // Reduce to standard form: B = L L^T, C = L^{-1} A L^{-T}.
  Cholesky chol(b);
  Matrix<double> c = a;
  chol.forward_inplace(c);            // C <- L^{-1} A
  chol.right_backward_t_inplace(c);   // C <- C L^{-T}
  EigResult res = sym_eig(c);
  // Back-transform eigenvectors: x = L^{-T} q, which are B-orthonormal.
  chol.backward_t_inplace(res.vectors);
  return res;
}

EigResult tridiag_eig(std::vector<double> d, std::vector<double> e) {
  RSRPA_REQUIRE(e.size() + 1 == d.size() || (d.size() <= 1 && e.empty()));
  const std::size_t n = d.size();
  EigResult res;
  res.vectors = Matrix<double>::identity(n);
  // tql2 expects the tred2 layout where e[i] couples i-1 and i.
  std::vector<double> esh(n, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) esh[i + 1] = e[i];
  res.values = std::move(d);
  tql2(res.values, esh, &res.vectors);
  sort_ascending(res.values, &res.vectors);
  return res;
}

std::vector<double> tridiag_eigvals(std::vector<double> d,
                                    std::vector<double> e) {
  const std::size_t n = d.size();
  std::vector<double> esh(n, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) esh[i + 1] = e[i];
  tql2(d, esh, nullptr);
  sort_ascending(d, nullptr);
  return d;
}

}  // namespace rsrpa::la
