// A2 / SS III-B ablation: block size vs iteration count and time on easy
// and hard Sternheimer systems; COCG vs GMRES vs COCR.
//
// Expected shape: iteration count non-increasing with block size, with
// real gains only on the hard (indefinite, near-origin) systems; GMRES
// needs more operator applications than the short-recurrence methods once
// restarts kick in.
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "rpa/presets.hpp"
#include "rpa/quadrature.hpp"
#include "solver/block_cocg.hpp"
#include "solver/gmres.hpp"
#include "support/cocr.hpp"

int main() {
  using namespace rsrpa;
  using la::cplx;
  bench::JsonReport report("a2_blocksize_iters", "SS III-B analysis",
                           "larger blocks cut iterations on hard systems; "
                           "GMRES is the expensive no-short-recurrence "
                           "baseline");
  obs::Json cases_json = obs::Json::array();

  rpa::SystemPreset preset = rpa::make_si_preset(1, false);
  preset.grid_per_cell = bench::full_scale() ? 13 : 11;
  rpa::BuiltSystem sys = rpa::build_system(preset);
  const auto quad = rpa::rpa_frequency_quadrature(8);
  const std::size_t n = sys.ks.n_grid();
  const double tol = 1e-8;

  struct Case {
    const char* label;
    double lambda, omega;
  } cases[] = {
      {"easy (j=1, k=1)", sys.ks.eigenvalues.front(), quad.front().omega},
      {"mid  (j=ns, k=5)", sys.ks.eigenvalues.back(), quad[4].omega},
      {"hard (j=ns, k=8)", sys.ks.eigenvalues.back(), quad.back().omega},
  };

  Rng rng(5);
  la::Matrix<double> b_real(n, 16);
  for (std::size_t j = 0; j < 16; ++j) rng.fill_uniform(b_real.col(j));

  bool nonincreasing_ok = true, gmres_pricier = true;
  for (const auto& c : cases) {
    solver::BlockOpC op = [&](const la::Matrix<cplx>& in,
                              la::Matrix<cplx>& out) {
      sys.h->apply_shifted_block(in, out, c.lambda, c.omega);
    };
    std::printf("%s  (lambda = %.3f, omega = %.3f)\n", c.label, c.lambda,
                c.omega);
    std::printf("  %-12s %-8s %-14s %-10s\n", "method", "iters",
                "col matvecs", "time(ms)");

    solver::SolverOptions sopts;
    sopts.tol = tol;
    sopts.max_iter = 50000;

    obs::Json case_rec = obs::Json::object();
    case_rec["label"] = obs::Json(c.label);
    case_rec["lambda"] = obs::Json(c.lambda);
    case_rec["omega"] = obs::Json(c.omega);
    obs::Json methods = obs::Json::array();

    int prev_iters = 1 << 30;
    long cocg_matvecs = 0;
    for (std::size_t s : {1u, 2u, 4u, 8u, 16u}) {
      la::Matrix<cplx> b(n, s), y(n, s);
      for (std::size_t j = 0; j < s; ++j)
        for (std::size_t i = 0; i < n; ++i) b(i, j) = {b_real(i, j), 0.0};
      WallTimer t;
      auto r = solver::block_cocg(op, b, y, sopts);
      std::printf("  blkCOCG s=%-2zu %-8d %-14ld %-10.1f %s\n", s,
                  r.iterations, r.matvec_columns, 1e3 * t.seconds(),
                  r.converged ? "" : "(NOT CONVERGED)");
      obs::Json mr = obs::Json::object();
      mr["method"] = obs::Json("block_cocg");
      mr["block_size"] = obs::Json(s);
      mr["iterations"] = obs::Json(r.iterations);
      mr["matvec_columns"] = obs::Json(r.matvec_columns);
      mr["seconds"] = obs::Json(t.seconds());
      mr["converged"] = obs::Json(r.converged);
      methods.push_back(std::move(mr));
      // Allow small non-monotonic wiggle from inexact arithmetic.
      nonincreasing_ok = nonincreasing_ok && r.iterations <= prev_iters + 3;
      prev_iters = r.iterations;
      if (s == 1) cocg_matvecs = r.matvec_columns;
    }

    {
      std::vector<cplx> b1(n), y(n, cplx{});
      for (std::size_t i = 0; i < n; ++i) b1[i] = {b_real(i, 0), 0.0};
      WallTimer t;
      auto r = solver::cocr(op, b1, y, sopts);
      std::printf("  COCR         %-8d %-14ld %-10.1f\n", r.iterations,
                  r.matvec_columns, 1e3 * t.seconds());
      obs::Json mr = obs::Json::object();
      mr["method"] = obs::Json("cocr");
      mr["iterations"] = obs::Json(r.iterations);
      mr["matvec_columns"] = obs::Json(r.matvec_columns);
      mr["seconds"] = obs::Json(t.seconds());
      mr["converged"] = obs::Json(r.converged);
      methods.push_back(std::move(mr));
    }
    {
      std::vector<cplx> b1(n), y(n, cplx{});
      for (std::size_t i = 0; i < n; ++i) b1[i] = {b_real(i, 0), 0.0};
      solver::GmresOptions gopts;
      gopts.tol = tol;
      gopts.max_iter = 50000;
      gopts.restart = 40;
      WallTimer t;
      auto r = solver::gmres(op, b1, y, gopts);
      std::printf("  GMRES(40)    %-8d %-14ld %-10.1f\n", r.iterations,
                  r.matvec_columns, 1e3 * t.seconds());
      obs::Json mr = obs::Json::object();
      mr["method"] = obs::Json("gmres40");
      mr["iterations"] = obs::Json(r.iterations);
      mr["matvec_columns"] = obs::Json(r.matvec_columns);
      mr["seconds"] = obs::Json(t.seconds());
      mr["converged"] = obs::Json(r.converged);
      methods.push_back(std::move(mr));
      // On the restarted (hard) cases GMRES pays extra applications.
      if (c.omega < 0.1) gmres_pricier = r.matvec_columns >= cocg_matvecs;
    }
    case_rec["methods"] = std::move(methods);
    cases_json.push_back(std::move(case_rec));
    std::printf("\n");
  }

  std::printf("Checks:\n");
  report.data()["cases"] = std::move(cases_json);
  report.add_check("block iterations non-increasing with s", nonincreasing_ok);
  report.add_check("GMRES needs at least as many applications on hard system",
                   gmres_pricier);
  return report.finish();
}
