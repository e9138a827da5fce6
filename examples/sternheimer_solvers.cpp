// Solver playground: the complex-symmetric Krylov solvers on real
// Sternheimer systems of varying difficulty.
//
// Builds the Si8 model, then solves (H - lambda_j I + i omega_k I) Y = B
// for an easy index pair (j = 1, k = 1: definite, far from the origin)
// and the hardest pair (j = n_s, k = l: indefinite, eigenvalue ~omega_l
// from the origin), comparing COCG, COCR, GMRES and block COCG at several
// block sizes — the solver story of paper SS III-B.
#include <cstdio>

#include "rpa/presets.hpp"
#include "rpa/quadrature.hpp"
#include "solver/block_cocg.hpp"
#include "solver/galerkin_guess.hpp"
#include "solver/gmres.hpp"
#include "support/cocr.hpp"

int main() {
  using namespace rsrpa;
  using la::cplx;

  rpa::SystemPreset preset = rpa::make_si_preset(1, false);
  rpa::BuiltSystem sys = rpa::build_system(preset);
  const auto quad = rpa::rpa_frequency_quadrature(8);
  const std::size_t n = sys.ks.n_grid();

  struct Case {
    const char* label;
    double lambda;
    double omega;
  };
  const Case cases[] = {
      {"easy   (j=1,  k=1)", sys.ks.eigenvalues.front(), quad.front().omega},
      {"hard   (j=ns, k=l)", sys.ks.eigenvalues.back(), quad.back().omega},
  };

  Rng rng(42);
  const double tol = 1e-6;

  for (const Case& c : cases) {
    std::printf("\n=== %s: lambda = %.4f, omega = %.4f ===\n", c.label,
                c.lambda, c.omega);
    solver::BlockOpC op = [&](const la::Matrix<cplx>& in,
                              la::Matrix<cplx>& out) {
      sys.h->apply_shifted_block(in, out, c.lambda, c.omega);
    };

    la::Matrix<double> b_real(n, 8);
    for (std::size_t j = 0; j < 8; ++j) rng.fill_uniform(b_real.col(j));

    // Single right-hand side: COCG vs COCR vs GMRES.
    std::vector<cplx> b1(n), y(n);
    for (std::size_t i = 0; i < n; ++i) b1[i] = {b_real(i, 0), 0.0};

    solver::SolverOptions sopts;
    sopts.tol = tol;
    sopts.max_iter = 20000;

    std::fill(y.begin(), y.end(), cplx{});
    auto rc = solver::cocg(op, b1, y, sopts);
    std::printf("  COCG        : %5d iters, relres %.2e\n", rc.iterations,
                rc.relative_residual);

    std::fill(y.begin(), y.end(), cplx{});
    auto rr = solver::cocr(op, b1, y, sopts);
    std::printf("  COCR        : %5d iters, relres %.2e\n", rr.iterations,
                rr.relative_residual);

    solver::GmresOptions gopts;
    gopts.tol = tol;
    gopts.max_iter = 20000;
    gopts.restart = 50;
    std::fill(y.begin(), y.end(), cplx{});
    auto rg = solver::gmres(op, b1, y, gopts);
    std::printf("  GMRES(50)   : %5d iters, relres %.2e\n", rg.iterations,
                rg.relative_residual);

    // Block COCG across block sizes, from the Galerkin initial guess.
    for (std::size_t s : {1u, 2u, 4u, 8u}) {
      la::Matrix<double> bs = b_real.slice_cols(0, s);
      la::Matrix<cplx> bblock(n, s);
      for (std::size_t j = 0; j < s; ++j)
        for (std::size_t i = 0; i < n; ++i) bblock(i, j) = {bs(i, j), 0.0};
      la::Matrix<cplx> yblock = solver::galerkin_initial_guess(
          sys.ks.orbitals, sys.ks.eigenvalues, c.lambda, c.omega, bs);
      auto rb = solver::block_cocg(op, bblock, yblock, sopts);
      std::printf("  blkCOCG s=%zu : %5d iters, relres %.2e "
                  "(Galerkin guess, %ld column matvecs)\n",
                  s, rb.iterations, rb.relative_residual, rb.matvec_columns);
    }
  }
  std::printf("\nNote the iteration gap between the easy and hard index "
              "pairs,\nand the iteration reduction from larger blocks on "
              "the hard pair.\n");
  return 0;
}
