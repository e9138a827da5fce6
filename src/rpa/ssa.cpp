#include "rpa/ssa.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "la/eig.hpp"
#include "obs/event_log.hpp"
#include "rpa/ritz.hpp"

namespace rsrpa::rpa {

SsaProjection ssa_project(const solver::BlockOpR& apply,
                          const la::Matrix<double>& basis, double omega,
                          obs::EventLog* events, double aug_target) {
  const std::size_t n = basis.rows(), m = basis.cols();
  RSRPA_REQUIRE(n >= 1 && m >= 1);
  SsaProjection out;

  la::Matrix<double> ab(n, m);
  apply(basis, ab);

  la::Matrix<double> hs(m, m), ms(m, m);
  {
    WallTimer t;
    la::gemm_tn(1.0, basis, ab, 0.0, hs);
    la::gemm_tn(1.0, basis, basis, 0.0, ms);
    out.matmult_seconds += t.seconds();
  }
  detail::symmetrize(hs);

  la::EigResult sub;
  {
    WallTimer t;
    try {
      sub = la::sym_eig_gen(hs, ms);
    } catch (const NumericalBreakdown& breakdown) {
      // The frozen basis went numerically rank-deficient at this omega.
      // The full driver would orthonormalize V in place — off limits here
      // (the basis must stay frozen), so report the collapse and let the
      // caller fall back to a full solve.
      out.collapsed = true;
      out.eigensolve_seconds += t.seconds();
      if (events != nullptr)
        events->emit(obs::events::kEigensolveCollapse, breakdown.what(),
                     {{"omega", omega},
                      {"subspace_dim", static_cast<double>(m)}});
      return out;
    }
    out.eigensolve_seconds += t.seconds();
  }

  // First-pass Ritz vectors X = B Y and their images A X = (A B) Y: two
  // GEMMs reuse the operator application above.
  la::Matrix<double> x(n, m), ax(n, m);
  {
    WallTimer t;
    la::gemm_nn(1.0, basis, sub.vectors, 0.0, x);
    la::gemm_nn(1.0, ab, sub.vectors, 0.0, ax);
    out.matmult_seconds += t.seconds();
  }

  std::vector<double> col_res;
  {
    WallTimer t;
    out.residual = detail::ritz_residual(x, ax, sub.values, m, col_res);
    out.residual_seconds += t.seconds();
  }
  out.eigenvalues = sub.values;

  // --- Residual augmentation (the "handful of fused applies") ---
  // The one-apply Ritz values carry an O(residual^2 / gap) bias that adds
  // up over a long elided tail. Each augmentation round applies the
  // operator once more — to the normalized residual vectors of the
  // current pairs — and runs Rayleigh-Ritz on [X | R] (the
  // Jacobi-Davidson expansion), capturing the next-order rotation of the
  // frozen subspace at this omega. Every round shrinks both the
  // eigenvalue bias and the a-posteriori bound by an order of magnitude
  // or more; the loop stops early once the residual reaches `aug_target`
  // (<= 0 disables the early exit) and is hard-capped at kMaxApplies
  // total applications, keeping the elision several times cheaper than a
  // full solve.
  constexpr int kMaxApplies = 4;
  for (int round = 1; round < kMaxApplies; ++round) {
    if (aug_target > 0.0 && out.residual <= aug_target) break;
    const double res_scale =
        std::max(std::sqrt([&] {
          double s = 0.0;
          for (double v : out.eigenvalues) s += v * v;
          return s;
        }()),
                 1e-300);
    std::vector<std::size_t> keep;
    for (std::size_t j = 0; j < m; ++j)
      if (col_res[j] > 1e-12 * res_scale) keep.push_back(j);
    if (keep.empty()) break;  // invariant subspace: current pairs exact

    const std::size_t p = keep.size(), w = m + p;
    la::Matrix<double> r(n, p);
    {
      WallTimer t;
      for (std::size_t c = 0; c < p; ++c) {
        const std::size_t j = keep[c];
        const double inv = 1.0 / col_res[j];
        for (std::size_t i = 0; i < n; ++i)
          r(i, c) = (ax(i, j) - out.eigenvalues[j] * x(i, j)) * inv;
      }
      out.matmult_seconds += t.seconds();
    }
    la::Matrix<double> ar(n, p);
    apply(r, ar);

    // Augmented pencil on W = [X | R], A W = [A X | A R].
    la::Matrix<double> wmat(n, w), awmat(n, w);
    {
      WallTimer t;
      for (std::size_t j = 0; j < m; ++j)
        for (std::size_t i = 0; i < n; ++i) {
          wmat(i, j) = x(i, j);
          awmat(i, j) = ax(i, j);
        }
      for (std::size_t c = 0; c < p; ++c)
        for (std::size_t i = 0; i < n; ++i) {
          wmat(i, m + c) = r(i, c);
          awmat(i, m + c) = ar(i, c);
        }
      out.matmult_seconds += t.seconds();
    }
    la::Matrix<double> hw(w, w), mw(w, w);
    {
      WallTimer t;
      la::gemm_tn(1.0, wmat, awmat, 0.0, hw);
      la::gemm_tn(1.0, wmat, wmat, 0.0, mw);
      out.matmult_seconds += t.seconds();
    }
    detail::symmetrize(hw);

    la::EigResult aug;
    {
      WallTimer te;
      try {
        aug = la::sym_eig_gen(hw, mw);
      } catch (const NumericalBreakdown&) {
        // The augmented pencil (not the frozen basis) went rank-deficient
        // — e.g. near-converged pairs leave R nearly parallel to X. The
        // values and residual from the previous round are already valid;
        // keep them.
        out.eigensolve_seconds += te.seconds();
        return out;
      }
      out.eigensolve_seconds += te.seconds();
    }

    // Keep the m most negative augmented Ritz pairs — the same spectral
    // window the full solve tracks — and fold them back into (x, ax) so
    // the next round (if any) expands from the refined pairs.
    la::Matrix<double> yk(w, m);
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t i = 0; i < w; ++i) yk(i, j) = aug.vectors(i, j);
    {
      WallTimer tg;
      la::gemm_nn(1.0, wmat, yk, 0.0, x);
      la::gemm_nn(1.0, awmat, yk, 0.0, ax);
      out.matmult_seconds += tg.seconds();
    }
    out.eigenvalues.assign(aug.values.begin(), aug.values.begin() + m);
    {
      WallTimer tr;
      out.residual =
          detail::ritz_residual(x, ax, out.eigenvalues, m, col_res);
      out.residual_seconds += tr.seconds();
    }
  }
  return out;
}

}  // namespace rsrpa::rpa
