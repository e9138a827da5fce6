#include "dft/chefsi.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "solver/chebyshev.hpp"

namespace rsrpa::dft {

void chebyshev_filter(const ham::Hamiltonian& h, la::Matrix<double>& v,
                      int degree, double a, double b, double a0) {
  // Fused three-term binding: the polynomial scalars fold into the
  // Hamiltonian's single-sweep kernel, so each filter step is one memory
  // pass per column plus the block nonlocal update.
  solver::chebyshev_filter_fused(
      [&h](const la::Matrix<double>& in, la::Matrix<double>& out, double c1,
           double c0, const la::Matrix<double>* extra, double c2) {
        h.apply_poly_block<double>(in, out, c1, c0, extra, c2);
      },
      v, degree, a, b, a0);
}

GroundState solve_ground_state(const ham::Hamiltonian& h, std::size_t n_states,
                               const ChefsiOptions& opts, Rng& rng) {
  const std::size_t n = h.grid().size();
  const std::size_t block = std::min(n, n_states + opts.extra_states);
  RSRPA_REQUIRE(n_states >= 1 && n_states <= block);

  la::Matrix<double> v(n, block);
  for (std::size_t j = 0; j < block; ++j) rng.fill_uniform(v.col(j));
  la::orthonormalize(v);

  const double ub = h.upper_bound();
  const double lb = h.lower_bound();

  la::Matrix<double> hv(n, block), hs(block, block);
  std::vector<double> ritz;
  GroundState gs;

  for (int iter = 0; iter < opts.max_iter; ++iter) {
    // Rayleigh-Ritz on the current (orthonormal) block.
    h.apply_block<double>(v, hv);
    la::gemm_tn(1.0, v, hv, 0.0, hs);
    la::EigResult sub = la::sym_eig(hs);
    ritz = sub.values;
    la::Matrix<double> rotated(n, block);
    la::gemm_nn(1.0, v, sub.vectors, 0.0, rotated);
    v = std::move(rotated);

    // Residual of the wanted eigenpairs: ||H v_j - theta_j v_j||.
    h.apply_block<double>(v, hv);
    double max_res = 0.0;
    for (std::size_t j = 0; j < n_states; ++j) {
      double res2 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double r = hv(i, j) - ritz[j] * v(i, j);
        res2 += r * r;
      }
      max_res = std::max(max_res,
                         std::sqrt(res2) / std::max(std::abs(ritz[j]), 1.0));
    }
    gs.iterations = iter + 1;
    gs.residual = max_res;
    if (max_res <= opts.tol) {
      gs.converged = true;
      break;
    }

    // Filter: damp [top Ritz value, upper bound], amplify below.
    const double a = ritz.back() + 1e-8 * (ub - lb);
    const double a0 = std::min(ritz.front(), lb);
    chebyshev_filter(h, v, opts.degree, a, ub, a0);
    la::orthonormalize(v);
  }

  gs.eigenvalues.assign(ritz.begin(), ritz.begin() + n_states);
  gs.orbitals = v.slice_cols(0, n_states);
  return gs;
}

}  // namespace rsrpa::dft
