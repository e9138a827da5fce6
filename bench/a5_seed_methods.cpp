// A5 / SS II design decision: seed methods vs block methods.
//
// The paper rejects seed projection because the Sternheimer right-hand
// sides are "effectively random", so reusing the seed Krylov subspace
// should buy little. This ablation tests that: (a) independent COCG
// solves, (b) seed-projected initial guesses + COCG, (c) block COCG —
// on real Sternheimer systems with random-potential right-hand sides and,
// as a control, with CORRELATED right-hand sides where seeding does help.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "rpa/presets.hpp"
#include "rpa/quadrature.hpp"
#include "solver/block_cocg.hpp"
#include "support/seed_projection.hpp"

namespace {

using rsrpa::la::cplx;

struct Tally {
  long matvecs = 0;
  int max_iters = 0;
};

Tally solve_independent(const rsrpa::solver::BlockOpC& op,
                        const rsrpa::la::Matrix<cplx>& b,
                        const rsrpa::solver::SolverOptions& sopts) {
  Tally t;
  const std::size_t n = b.rows();
  for (std::size_t j = 0; j < b.cols(); ++j) {
    std::vector<cplx> bj(n), y(n, cplx{});
    for (std::size_t i = 0; i < n; ++i) bj[i] = b(i, j);
    auto r = rsrpa::solver::cocg(op, bj, y, sopts);
    t.matvecs += r.matvec_columns;
    t.max_iters = std::max(t.max_iters, r.iterations);
  }
  return t;
}

Tally solve_seeded(const rsrpa::solver::BlockOpC& op,
                   const rsrpa::la::Matrix<cplx>& b,
                   const rsrpa::solver::SolverOptions& sopts) {
  Tally t;
  const std::size_t n = b.rows();
  // Seed on column 0.
  std::vector<cplx> b0(n), y0(n, cplx{});
  for (std::size_t i = 0; i < n; ++i) b0[i] = b(i, 0);
  rsrpa::solver::SeedBasis basis;
  auto rs = rsrpa::solver::cocg_store_basis(op, b0, y0, basis, sopts);
  t.matvecs += rs.matvec_columns;
  t.max_iters = rs.iterations;

  // Project the rest and continue with COCG from the projected guess.
  rsrpa::la::Matrix<cplx> rest = b.slice_cols(1, b.cols() - 1);
  rsrpa::la::Matrix<cplx> guesses = rsrpa::solver::seed_project(basis, rest);
  for (std::size_t j = 0; j < rest.cols(); ++j) {
    std::vector<cplx> bj(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      bj[i] = rest(i, j);
      y[i] = guesses(i, j);
    }
    auto r = rsrpa::solver::cocg(op, bj, y, sopts);
    t.matvecs += r.matvec_columns;
    t.max_iters = std::max(t.max_iters, r.iterations);
  }
  return t;
}

}  // namespace

int main() {
  using namespace rsrpa;
  bench::JsonReport report("a5_seed_methods", "SS II (seed vs block methods)",
                           "seed projection buys little for the "
                           "effectively-random Sternheimer right-hand sides; "
                           "block COCG is the right tool");

  rpa::SystemPreset preset = rpa::make_si_preset(1, false);
  preset.grid_per_cell = bench::full_scale() ? 11 : 9;
  preset.fd_radius = 4;
  rpa::BuiltSystem sys = rpa::build_system(preset);
  const auto quad = rpa::rpa_frequency_quadrature(8);
  const std::size_t n = sys.ks.n_grid(), s = 8;

  const double lambda = sys.ks.eigenvalues.back();
  const double omega = quad[5].omega;  // moderately hard
  solver::BlockOpC op = [&](const la::Matrix<cplx>& in, la::Matrix<cplx>& out) {
    sys.h->apply_shifted_block(in, out, lambda, omega);
  };
  solver::SolverOptions sopts;
  sopts.tol = 1e-8;
  sopts.max_iter = 50000;

  Rng rng(11);

  // Case 1: effectively random right-hand sides (the Sternheimer regime).
  la::Matrix<cplx> b_rand(n, s);
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i) b_rand(i, j) = {rng.uniform(-1, 1), 0.0};

  // Case 2 (control): correlated right-hand sides — small perturbations of
  // a common vector, the regime where seed methods are designed to shine.
  la::Matrix<cplx> b_corr(n, s);
  for (std::size_t i = 0; i < n; ++i) b_corr(i, 0) = b_rand(i, 0);
  for (std::size_t j = 1; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i)
      b_corr(i, j) = b_rand(i, 0) + cplx{0.01 * rng.uniform(-1, 1), 0.0};

  std::printf("%zu right-hand sides, lambda = %.3f, omega = %.3f, tol = %.0e\n\n",
              s, lambda, omega, sopts.tol);
  std::printf("%-28s %-14s %-14s\n", "strategy", "random RHS", "correlated RHS");

  const Tally ind_r = solve_independent(op, b_rand, sopts);
  const Tally ind_c = solve_independent(op, b_corr, sopts);
  std::printf("%-28s %-14ld %-14ld   (column matvecs)\n",
              "independent COCG", ind_r.matvecs, ind_c.matvecs);

  const Tally seed_r = solve_seeded(op, b_rand, sopts);
  const Tally seed_c = solve_seeded(op, b_corr, sopts);
  std::printf("%-28s %-14ld %-14ld\n", "seed projection + COCG",
              seed_r.matvecs, seed_c.matvecs);

  la::Matrix<cplx> yb(n, s);
  auto rb_r = solver::block_cocg(op, b_rand, yb, sopts);
  yb.zero();
  auto rb_c = solver::block_cocg(op, b_corr, yb, sopts);
  std::printf("%-28s %-14ld %-14ld\n", "block COCG (s=8)",
              rb_r.matvec_columns, rb_c.matvec_columns);

  const double seed_gain_random =
      static_cast<double>(ind_r.matvecs - seed_r.matvecs) /
      static_cast<double>(ind_r.matvecs);
  const double seed_gain_corr =
      static_cast<double>(ind_c.matvecs - seed_c.matvecs) /
      static_cast<double>(ind_c.matvecs);
  std::printf("\nseed-method saving: %.0f%% on random RHS, %.0f%% on "
              "correlated RHS\n",
              100 * seed_gain_random, 100 * seed_gain_corr);

  const bool paper_claim = seed_gain_random < 0.30;  // little benefit
  const bool control_works = seed_gain_corr > seed_gain_random;
  std::printf("\nChecks:\n");
  obs::Json tallies = obs::Json::object();
  auto tally_json = [](long matvecs, int max_iters) {
    obs::Json t = obs::Json::object();
    t["matvec_columns"] = obs::Json(matvecs);
    t["max_iterations"] = obs::Json(max_iters);
    return t;
  };
  tallies["independent_random"] = tally_json(ind_r.matvecs, ind_r.max_iters);
  tallies["independent_correlated"] = tally_json(ind_c.matvecs, ind_c.max_iters);
  tallies["seeded_random"] = tally_json(seed_r.matvecs, seed_r.max_iters);
  tallies["seeded_correlated"] = tally_json(seed_c.matvecs, seed_c.max_iters);
  tallies["block_random"] = tally_json(rb_r.matvec_columns, rb_r.iterations);
  tallies["block_correlated"] = tally_json(rb_c.matvec_columns, rb_c.iterations);
  report.data()["tallies"] = std::move(tallies);
  report.data()["seed_gain_random"] = obs::Json(seed_gain_random);
  report.data()["seed_gain_correlated"] = obs::Json(seed_gain_corr);
  report.add_check("seeding saves <30% on random RHS (paper's rationale)",
                   paper_claim);
  report.add_check("seeding helps MORE on correlated RHS (control)",
                   control_works);
  return report.finish();
}
