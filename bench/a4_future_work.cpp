// A4 / SS V future-work items, implemented and measured:
//  (1) inverse-Laplacian (split) preconditioning of COCG on Sternheimer
//      systems of increasing difficulty;
//  (2) stochastic Lanczos quadrature replacing the dense eigensolve trace
//      at one quadrature point.
//
// Expected shape: preconditioning trades iterations for per-iteration
// cost — unprofitable on easy systems, iteration-reducing on hard ones;
// SLQ reproduces the eigensolve trace to stochastic accuracy without any
// dense eigensolve.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "direct/direct_rpa.hpp"
#include "la/blas.hpp"
#include "rpa/presets.hpp"
#include "rpa/quadrature.hpp"
#include "rpa/trace_est.hpp"
#include "solver/block_cocg.hpp"
#include "support/preconditioner.hpp"

int main() {
  using namespace rsrpa;
  using la::cplx;
  bench::JsonReport report("a4_future_work", "SS V future work",
                           "inverse-Laplacian preconditioning helps hard "
                           "Sternheimer systems; Lanczos quadrature can "
                           "replace the eigensolve");

  rpa::SystemPreset preset = rpa::make_si_preset(1, false);
  preset.grid_per_cell = 9;
  preset.fd_radius = 4;
  rpa::BuiltSystem sys = rpa::build_system(preset);
  const auto quad = rpa::rpa_frequency_quadrature(8);
  const std::size_t n = sys.ks.n_grid();

  // ---- (1) Preconditioned COCG --------------------------------------
  std::printf("[1] split inverse-Laplacian preconditioning (M = sigma0 - "
              "L/2)\n");
  std::printf("  %-18s %-12s %-12s %-12s %-12s\n", "case", "plain iters",
              "plain t(ms)", "prec iters", "prec t(ms)");

  Rng rng(3);
  la::Matrix<double> b_real(n, 4);
  for (std::size_t j = 0; j < 4; ++j) rng.fill_uniform(b_real.col(j));
  la::Matrix<cplx> b(n, 4);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < n; ++i) b(i, j) = {b_real(i, j), 0.0};

  struct Case {
    const char* label;
    double lambda, omega;
  } cases[] = {
      {"easy (1,1)", sys.ks.eigenvalues.front(), quad.front().omega},
      {"hard (ns,8)", sys.ks.eigenvalues.back(), quad.back().omega},
  };

  solver::SolverOptions sopts;
  sopts.tol = 1e-8;
  sopts.max_iter = 50000;
  bool prec_helps_hard_iters = false;
  obs::Json prec_rows = obs::Json::array();

  for (const Case& c : cases) {
    solver::BlockOpC op = [&](const la::Matrix<cplx>& in,
                              la::Matrix<cplx>& out) {
      sys.h->apply_shifted_block(in, out, c.lambda, c.omega);
    };
    la::Matrix<cplx> y_plain(n, 4);
    WallTimer tp;
    auto rp = solver::block_cocg(op, b, y_plain, sopts);
    const double t_plain = tp.seconds();

    // Shift sigma0 keeps M positive and comparable to |A|'s real offset.
    solver::ShiftedLaplacianPrecond precond(*sys.klap,
                                            std::max(0.05, -c.lambda));
    la::Matrix<cplx> y_prec(n, 4);
    WallTimer tq;
    auto rq = solver::preconditioned_block_cocg(op, precond, b, y_prec, sopts);
    const double t_prec = tq.seconds();

    std::printf("  %-18s %-12d %-12.1f %-12d %-12.1f\n", c.label,
                rp.iterations, 1e3 * t_plain, rq.iterations, 1e3 * t_prec);
    if (c.omega < 0.1) prec_helps_hard_iters = rq.iterations < rp.iterations;

    obs::Json row = obs::Json::object();
    row["case"] = obs::Json(c.label);
    row["plain_iterations"] = obs::Json(rp.iterations);
    row["plain_matvec_columns"] = obs::Json(rp.matvec_columns);
    row["plain_seconds"] = obs::Json(t_plain);
    row["prec_iterations"] = obs::Json(rq.iterations);
    row["prec_matvec_columns"] = obs::Json(rq.matvec_columns);
    row["prec_seconds"] = obs::Json(t_prec);
    prec_rows.push_back(std::move(row));
  }

  // ---- (2) SLQ trace vs dense eigensolve trace ----------------------
  std::printf("\n[2] stochastic Lanczos quadrature of Tr[ln(1 - M) + M], "
              "M = nu^{1/2} chi0 nu^{1/2}, omega = %.3f\n",
              quad[4].omega);

  la::EigResult heig = direct::full_diagonalization(*sys.h);
  la::Matrix<double> chi0 = direct::dense_chi0(heig, sys.ks.n_occ(),
                                               quad[4].omega,
                                               sys.h->grid().dv());
  la::Matrix<double> m = direct::dense_nu_half_chi0_nu_half(chi0, *sys.klap);
  std::vector<double> spec = la::sym_eigvals(m);
  double exact = 0.0;
  for (double mu : spec) exact += rpa::rpa_trace_term(mu);

  solver::BlockOpR mop = [&m](const la::Matrix<double>& in,
                              la::Matrix<double>& out) {
    la::gemm_nn(1.0, m, in, 0.0, out);
  };
  Rng slq_rng(17);
  std::printf("  %-10s %-14s %-12s\n", "probes", "SLQ estimate", "rel err");
  double best_rel = 1e300;
  obs::Json slq_rows = obs::Json::array();
  for (int probes : {8, 32, 128}) {
    const double est = rpa::slq_trace(
        mop, n, [](double x) { return rpa::rpa_trace_term(std::min(x, 0.0)); },
        probes, 30, slq_rng);
    const double rel = std::abs(est - exact) / std::abs(exact);
    std::printf("  %-10d %-14.6f %-12.3e\n", probes, est, rel);
    best_rel = std::min(best_rel, rel);
    obs::Json row = obs::Json::object();
    row["probes"] = obs::Json(probes);
    row["estimate"] = obs::Json(est);
    row["rel_err"] = obs::Json(rel);
    slq_rows.push_back(std::move(row));
  }
  std::printf("  dense eigensolve trace: %.6f\n", exact);

  std::printf("\nChecks:\n");
  report.data()["preconditioning"] = std::move(prec_rows);
  report.data()["slq"] = std::move(slq_rows);
  report.data()["exact_trace"] = obs::Json(exact);
  report.add_check("preconditioning reduces iterations on the hard system",
                   prec_helps_hard_iters);
  report.add_check("SLQ reaches <5% relative error", best_rel < 0.05);
  return report.finish();
}
