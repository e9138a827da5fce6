#include "la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <type_traits>

#include "la/cholesky.hpp"
#include "sched/parallel_for.hpp"

namespace rsrpa::la {

namespace {

double hypot2(double a, double b) { return std::hypot(a, b); }

// Columns per block of the accumulation's interleaved dot chains, and
// doubles per 64-byte cache line.
constexpr std::size_t kB = 8;
constexpr std::size_t kLine = 8;

// Smallest order whose eigenvectors are accumulated and rotated on several
// lanes. Below it, and on a one-lane pool, both vector phases run as one
// range in place: no fork and no copies.
constexpr std::size_t kForkMinN = 128;

std::size_t vector_lanes(std::size_t n) {
  if (n < kForkMinN) return 1;
  std::size_t lanes = static_cast<std::size_t>(sched::global_pool().threads());
  if (const int quota = sched::current_task_quota(); quota > 0)
    lanes = std::min(lanes, static_cast<std::size_t>(quota));
  return std::min(lanes, n / kLine);
}

double* line_aligned(double* p) {
  constexpr std::uintptr_t mask = kLine * sizeof(double) - 1;
  return reinterpret_cast<double*>(
      (reinterpret_cast<std::uintptr_t>(p) + mask) & ~mask);
}

// p[0, m) = A u for the symmetric A whose lower triangle is the leading
// m x m block of z, read down columns only. Column k adds A(k:m, k) u[k]
// to p[k:m] (an axpy), after which p[k] is complete up to the diagonal,
// and continues p[k] with A(k+1:m, k) . u[k+1:m] (a dot). Each p[j] is
// thus one fma chain in EISPACK's row order. Columns go in blocks of
// eight: each row's p[j] is loaded once per block, and the block's eight
// dots run as eight interleaved chains.
void symv_lower(const Matrix<double>& z, std::size_t m, const double* u,
                double* p) {
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

// Step i of the transform accumulation on Q's columns [c0, ce), ce <= i:
// each column q takes g = u . q[0:i], then q[0:i] -= g v. The dots of a
// block of eight columns run as eight interleaved chains, then each column
// takes its axpy; a column's arithmetic is the same in any block.
void householder_step(Matrix<double>& z, std::size_t c0, std::size_t ce,
                      std::size_t i, const double* u, const double* v) {
  for (std::size_t j0 = c0; j0 < ce; j0 += kB) {
    const std::size_t nb = std::min(kB, ce - j0);
    double g[kB] = {};
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

// tred2's accumulation of Q. On entry z holds the reduction's outputs:
// u_i in row i and v_i = u_i / h_i in column i (both over [0, i)), the
// diagonal of T on the diagonal, and h_i in d[i]. On exit z = Q and d is
// the diagonal of T. Column j of Q is e_j taken through the steps i > j
// with h_i != 0, so columns are independent: on several lanes, u goes into
// a packed triangle (u_i contiguous at offset i(i-1)/2, kept intact while
// Q overwrites z), each lane forms v_i = u_i / h_i from it as the
// reduction did, and takes a range of whole 8-column blocks with about
// equal work.
void accumulate_transform(Matrix<double>& z, std::vector<double>& d) {
  const std::size_t n = z.rows();
  const std::vector<double> h = d;
  for (std::size_t i = 0; i < n; ++i) d[i] = z(i, i);
  const std::size_t lanes = vector_lanes(n);
  if (lanes == 1) {
    // One range in place, in EISPACK's step order: step i reads u_i (out
    // of row i) and v_i, then sets row and column i to those of I.
    std::vector<double> u(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (h[i] != 0.0) {
        for (std::size_t k = 0; k < i; ++k) u[k] = z(i, k);
        householder_step(z, 0, i, i, u.data(), &z(0, i));
      }
      z(i, i) = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        z(j, i) = 0.0;
        z(i, j) = 0.0;
      }
    }
    return;
  }
  std::vector<double> ut(n * (n - 1) / 2);
  // work[j] ~ the multiply-adds column j takes over the steps i > j.
  std::vector<double> work(n);
  double tail = 0.0;
  for (std::size_t i = n; i-- > 0;) {
    work[i] = tail;
    if (h[i] == 0.0) continue;
    tail += static_cast<double>(i);
    const std::size_t off = i * (i - 1) / 2;
    for (std::size_t k = 0; k < i; ++k) ut[off + k] = z(i, k);
  }
  std::vector<std::size_t> bounds(lanes + 1, n);
  bounds[0] = 0;
  const double total = std::accumulate(work.begin(), work.end(), 0.0);
  double acc = 0.0;
  for (std::size_t t = 1, j = 0; t < lanes; ++t) {
    while (j < n && acc < total * static_cast<double>(t) / lanes)
      for (const std::size_t je = std::min(j + kB, n); j < je; ++j)
        acc += work[j];
    bounds[t] = j;
  }
  sched::parallel_for(0, lanes, 1, [&](std::size_t t) {
    const std::size_t c0 = bounds[t], c1 = bounds[t + 1];
    for (std::size_t j = c0; j < c1; ++j) {
      std::fill_n(&z(0, j), n, 0.0);
      z(j, j) = 1.0;
    }
    std::vector<double> v(n);
    for (std::size_t i = c0 + 1; i < n; ++i) {
      if (h[i] == 0.0) continue;
      const double* u = &ut[i * (i - 1) / 2];
      for (std::size_t k = 0; k < i; ++k) v[k] = u[k] / h[i];
      householder_step(z, c0, std::min(c1, i), i, u, v.data());
    }
  });
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

  e[0] = 0.0;
  if (want_vectors) {
    d[0] = 0.0;
    accumulate_transform(z, d);
  } else {
    for (std::size_t i = 0; i < n; ++i) d[i] = z(i, i);
  }
}

// Implicit-shift QL iteration on a symmetric tridiagonal matrix (EISPACK
// tql2). `d` holds the diagonal and `e` the subdiagonal in the tred2
// layout (e[i] couples i-1 and i), shifted here to e[i] coupling i and
// i+1. Each rotation is applied to rows [0, rows) of the column-major
// block `zb` (leading dimension ld) unless zb is null. The rotations
// depend on d and e alone, so a lane that replays this on its own copies
// of d and e rotates its rows of Z exactly as one pass over all of Z does.
// The products that meet a sum are spelled as explicit fma, in the forms
// the optimizer's contraction gave EISPACK's expressions.
void ql_iterate(std::vector<double>& d, std::vector<double>& e, double* zb,
                std::size_t ld, std::size_t rows) {
  const std::size_t n = d.size();
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
          r = std::fma(d[i] - g, s, 2.0 * c * b);
          p = s * r;
          d[i + 1] = g + p;
          g = std::fma(c, r, -b);
          if (zb != nullptr) {
            double* zi = zb + i * ld;
            double* zi1 = zi + ld;
            for (std::size_t k = 0; k < rows; ++k) {
              f = zi1[k];
              zi1[k] = std::fma(s, zi[k], c * f);
              zi[k] = std::fma(c, zi[k], -(s * f));
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

// tql2, rotating the columns of `z` along when it is non-null. On several
// lanes there is one fork for the whole iteration: each lane replays the
// scalar recurrence on its own copies of d and e and rotates its own block
// of rows of Z. The block lives in a private buffer whose columns start on
// cache lines, and is copied back at the end: row blocks of the shared Z
// (its column stride is not a whole number of lines) would share a line
// at every block edge of every column.
void tql2(std::vector<double>& d, std::vector<double>& e, Matrix<double>* z) {
  const std::size_t n = d.size();
  if (n <= 1) return;
  const std::size_t lanes = z != nullptr ? vector_lanes(n) : 1;
  if (lanes == 1) {
    ql_iterate(d, e, z != nullptr ? z->data() : nullptr, n, n);
    return;
  }
  // Row blocks of whole cache lines, as even as the lines allow. Lane t's
  // block, rows [r0(t), r0(t+1)), sits at offset r0(t) n of one
  // line-aligned buffer, its leading dimension rounded up to whole lines.
  const std::size_t lines = (n + kLine - 1) / kLine;
  auto r0 = [&](std::size_t t) {
    return std::min(n, t * lines / lanes * kLine);
  };
  const auto store =
      std::make_unique_for_overwrite<double[]>(lines * kLine * n + kLine - 1);
  double* const base = line_aligned(store.get());
  std::vector<double> d_out;
  sched::parallel_for(0, lanes, 1, [&](std::size_t t) {
    const std::size_t rows = r0(t + 1) - r0(t);
    const std::size_t ld = (rows + kLine - 1) / kLine * kLine;
    double* buf = base + r0(t) * n;
    for (std::size_t j = 0; j < n; ++j)
      std::copy_n(&(*z)(r0(t), j), rows, buf + j * ld);
    std::vector<double> dl = d, el = e;
    ql_iterate(dl, el, buf, ld, rows);
    for (std::size_t j = 0; j < n; ++j)
      std::copy_n(buf + j * ld, rows, &(*z)(r0(t), j));
    if (t == 0) d_out = std::move(dl);
  });
  d = std::move(d_out);
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
