// Tests for the RPA core: quadrature (Table II), chi0 application vs the
// dense oracle, the symmetrized operator, subspace iteration, the E_RPA
// driver, and the trace estimators.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "direct/dense.hpp"
#include "la/blas.hpp"
#include "rpa/erpa.hpp"
#include "rpa/presets.hpp"
#include "rpa/trace_est.hpp"

namespace rsrpa::rpa {
namespace {

TEST(GaussLegendre, IntegratesPolynomialsExactly) {
  // GL-n is exact for degree 2n-1.
  for (int n : {2, 4, 8}) {
    const auto gl = gauss_legendre(n);
    double integral = 0.0;
    for (const auto& [x, w] : gl) integral += w * x * x;  // int x^2 = 2/3
    EXPECT_NEAR(integral, 2.0 / 3.0, 1e-13) << "n=" << n;
    double total = 0.0;
    for (const auto& [x, w] : gl) total += w;
    EXPECT_NEAR(total, 2.0, 1e-13);
  }
}

TEST(GaussLegendre, NewtonAndGolubWelschAgree) {
  for (int n : {1, 3, 8, 16}) {
    const auto a = gauss_legendre(n);
    const auto b = gauss_legendre_golub_welsch(n);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].first, b[i].first, 1e-12);
      EXPECT_NEAR(a[i].second, b[i].second, 1e-12);
    }
  }
}

TEST(FrequencyQuadrature, ReproducesTableII) {
  const auto pts = rpa_frequency_quadrature(8);
  ASSERT_EQ(pts.size(), 8u);
  // Paper Table II (3-4 significant digits).
  const double omega_ref[] = {49.36, 8.836, 3.215, 1.449,
                              0.690, 0.311, 0.113, 0.020};
  const double weight_ref[] = {128.4, 10.76, 2.787, 1.088,
                               0.518, 0.270, 0.138, 0.053};
  for (int k = 0; k < 8; ++k) {
    EXPECT_NEAR(pts[k].omega, omega_ref[k], 0.01 * omega_ref[k] + 5e-4) << k;
    EXPECT_NEAR(pts[k].weight, weight_ref[k], 0.01 * weight_ref[k] + 5e-3) << k;
  }
  // Descending omega, the ordering the warm start relies on.
  for (int k = 1; k < 8; ++k) EXPECT_LT(pts[k].omega, pts[k - 1].omega);
}

TEST(FrequencyQuadrature, ApproximatesLorentzIntegral) {
  // int_0^inf 1/(1 + w^2) dw = pi/2 — a sanity check that the transformed
  // rule integrates a decaying function of omega well.
  const auto pts = rpa_frequency_quadrature(16);
  double integral = 0.0;
  for (const QuadPoint& p : pts)
    integral += p.weight / (1.0 + p.omega * p.omega);
  EXPECT_NEAR(integral, M_PI / 2.0, 1e-3);
}

TEST(TraceTerm, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(rpa_trace_term(0.0), 0.0);
  EXPECT_NEAR(rpa_trace_term(-1.0), std::log(2.0) - 1.0, 1e-14);
  // Small-mu expansion: -mu^2/2 - mu^3/3 - ... (cubic term ~3e-13 here).
  const double mu = -1e-4;
  EXPECT_NEAR(rpa_trace_term(mu), -0.5 * mu * mu, 1e-12);
  // ln(1 - mu) is undefined at mu >= 1: NaN, not an exception — the
  // drivers must be able to skip the term and keep the run alive.
  EXPECT_TRUE(std::isnan(rpa_trace_term(1.0)));
  EXPECT_TRUE(std::isnan(rpa_trace_term(2.5)));
}

TEST(TraceTerm, AccumulateSkipsDomainViolationsAndRecordsThem) {
  const std::vector<double> eigs = {-2.0, -0.5, 1.5, 3.0};
  OmegaRecord rec;
  rec.converged = true;
  obs::EventLog events;
  const double sum = accumulate_trace_terms(eigs, 4, rec, &events);

  // Only the two valid eigenvalues contribute — no NaN leaks into e_term.
  const double expected = rpa_trace_term(-2.0) + rpa_trace_term(-0.5);
  EXPECT_DOUBLE_EQ(sum, expected);
  EXPECT_DOUBLE_EQ(rec.e_term, expected);
  EXPECT_FALSE(std::isnan(rec.e_term));

  // The violation is recorded, the point marked non-converged, the run
  // continues.
  EXPECT_EQ(rec.invalid_terms, 2);
  EXPECT_DOUBLE_EQ(rec.worst_mu, 3.0);
  EXPECT_FALSE(rec.converged);
  ASSERT_EQ(events.count(obs::events::kTraceTermDomain), 2u);
  const obs::Event& ev = events.events().front();
  ASSERT_EQ(ev.fields.size(), 2u);
  EXPECT_EQ(ev.fields[0].first, "omega_index");
  EXPECT_DOUBLE_EQ(ev.fields[0].second, 4.0);
  EXPECT_EQ(ev.fields[1].first, "mu");
  EXPECT_DOUBLE_EQ(ev.fields[1].second, 1.5);
}

TEST(TraceTerm, AccumulateLeavesCleanRecordUntouched) {
  const std::vector<double> eigs = {-1.0, -0.25};
  OmegaRecord rec;
  rec.converged = true;
  const double sum = accumulate_trace_terms(eigs, 0, rec, nullptr);
  EXPECT_DOUBLE_EQ(sum, rpa_trace_term(-1.0) + rpa_trace_term(-0.25));
  EXPECT_EQ(rec.invalid_terms, 0);
  EXPECT_TRUE(rec.converged);
}

// ----- Fixture: a tiny Si8 system with a dense oracle -----

struct TinySystem {
  BuiltSystem built;
  la::EigResult full_eig;

  TinySystem() {
    SystemPreset preset = make_si_preset(1, /*paper_scale=*/false);
    preset.grid_per_cell = 7;
    preset.n_eig_per_atom = 4;  // n_eig = 32
    preset.fd_radius = 3;
    built = build_system(preset);
    full_eig = direct::full_diagonalization(*built.h);
  }
};

TinySystem& tiny() {
  static TinySystem t;
  return t;
}

TEST(Chi0Applier, MatchesDenseOracle) {
  TinySystem& t = tiny();
  const std::size_t n = t.built.ks.n_grid();
  const double omega = 0.31;

  SternheimerOptions sopts;
  sopts.tol = 1e-11;
  sopts.max_iter = 5000;
  Chi0Applier chi0(t.built.ks, sopts);

  Rng rng(99);
  la::Matrix<double> v(n, 3), out(n, 3);
  for (std::size_t j = 0; j < 3; ++j) rng.fill_uniform(v.col(j));
  chi0.apply(v, out, omega);

  la::Matrix<double> dense = direct::dense_chi0(
      t.full_eig, t.built.ks.n_occ(), omega, t.built.h->grid().dv());
  la::Matrix<double> ref(n, 3);
  la::gemm_nn(1.0, dense, v, 0.0, ref);

  const double scale = la::norm_max(ref);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(out(i, j), ref(i, j), 2e-5 * scale) << i << "," << j;
}

TEST(Chi0Applier, GalerkinGuessDoesNotChangeResult) {
  TinySystem& t = tiny();
  const std::size_t n = t.built.ks.n_grid();
  const double omega = 1.449;

  SternheimerOptions with, without;
  with.tol = without.tol = 1e-10;
  with.max_iter = without.max_iter = 5000;
  with.galerkin_guess = true;
  without.galerkin_guess = false;

  Rng rng(100);
  la::Matrix<double> v(n, 2), a(n, 2), b(n, 2);
  for (std::size_t j = 0; j < 2; ++j) rng.fill_uniform(v.col(j));
  Chi0Applier(t.built.ks, with).apply(v, a, omega);
  Chi0Applier(t.built.ks, without).apply(v, b, omega);
  const double scale = la::norm_max(a) + 1e-30;
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(a(i, j), b(i, j), 1e-5 * scale);
}

TEST(Chi0Applier, IsNegativeSemidefiniteAndAnnihilatesConstants) {
  TinySystem& t = tiny();
  const std::size_t n = t.built.ks.n_grid();
  SternheimerOptions sopts;
  sopts.tol = 1e-10;
  sopts.max_iter = 5000;
  Chi0Applier chi0(t.built.ks, sopts);

  Rng rng(101);
  la::Matrix<double> v(n, 1), out(n, 1);
  for (int trial = 0; trial < 3; ++trial) {
    rng.fill_uniform(v.col(0));
    chi0.apply(v, out, 0.69);
    EXPECT_LE(la::dot(v.col(0), out.col(0)), 1e-8);
  }
  // Constant input: the response vanishes at imaginary frequency.
  v.fill(1.0);
  chi0.apply(v, out, 0.69);
  EXPECT_LT(la::norm_max(out) , 1e-6);
}

TEST(NuChi0Operator, IsSymmetric) {
  TinySystem& t = tiny();
  const std::size_t n = t.built.ks.n_grid();
  SternheimerOptions sopts;
  sopts.tol = 1e-10;
  sopts.max_iter = 5000;
  NuChi0Operator op(t.built.ks, *t.built.klap, sopts);

  Rng rng(102);
  la::Matrix<double> u(n, 1), v(n, 1), au(n, 1), av(n, 1);
  rng.fill_uniform(u.col(0));
  rng.fill_uniform(v.col(0));
  op.apply(u, au, 0.113);
  op.apply(v, av, 0.113);
  const double uav = la::dot(u.col(0), av.col(0));
  const double vau = la::dot(v.col(0), au.col(0));
  EXPECT_NEAR(uav, vau, 1e-6 * std::abs(uav) + 1e-10);
}

TEST(SubspaceIteration, RecoversMostNegativeEigenvalues) {
  TinySystem& t = tiny();
  const std::size_t n = t.built.ks.n_grid();
  const double omega = 0.69;
  const std::size_t n_eig = 12;

  // Exact spectrum from the dense oracle.
  std::vector<double> exact = direct::nu_chi0_spectrum(
      t.full_eig, t.built.ks.n_occ(), omega, *t.built.klap,
      t.built.h->grid().dv());

  SternheimerOptions sopts;
  sopts.tol = 1e-8;
  sopts.max_iter = 5000;
  NuChi0Operator op(t.built.ks, *t.built.klap, sopts);

  Rng rng(103);
  la::Matrix<double> v(n, n_eig);
  for (std::size_t j = 0; j < n_eig; ++j) rng.fill_uniform(v.col(j));

  SubspaceOptions opts;
  opts.tol = 5e-4;
  opts.max_filter_iter = 40;
  opts.cheb_degree = 4;
  SubspaceResult res = subspace_iteration(op, omega, v, opts);
  EXPECT_TRUE(res.converged);
  // The model's dielectric spectrum is clustered near the wanted/unwanted
  // boundary, so per-eigenvalue accuracy is bounded by the SI tolerance
  // times the spectrum scale (sub-percent of |mu_min| in practice).
  for (std::size_t j = 0; j < n_eig; ++j)
    EXPECT_NEAR(res.eigenvalues[j], exact[j], 1e-2 * std::abs(exact[0]))
        << j;
}

TEST(SubspaceIteration, WarmStartSkipsFiltering) {
  TinySystem& t = tiny();
  const std::size_t n = t.built.ks.n_grid();
  const std::size_t n_eig = 8;
  SternheimerOptions sopts;
  sopts.tol = 1e-8;
  sopts.max_iter = 5000;
  NuChi0Operator op(t.built.ks, *t.built.klap, sopts);

  SubspaceOptions opts;
  opts.tol = 2e-3;
  opts.max_filter_iter = 60;
  opts.cheb_degree = 4;

  Rng rng(104);
  la::Matrix<double> v(n, n_eig);
  for (std::size_t j = 0; j < n_eig; ++j) rng.fill_uniform(v.col(j));

  // Converge at omega_7, then warm-start the nearby omega_8.
  const auto quad = rpa_frequency_quadrature(8);
  SubspaceResult first = subspace_iteration(op, quad[6].omega, v, opts);
  ASSERT_TRUE(first.converged);
  const int cold_iters = first.filter_iterations;
  EXPECT_GT(cold_iters, 0);

  SubspaceResult second = subspace_iteration(op, quad[7].omega, v, opts);
  EXPECT_TRUE(second.converged);
  EXPECT_LT(second.filter_iterations, cold_iters);
}

// Eq. (7) with a fresh application of A to the Ritz block, as the paper's
// Algorithm 5 evaluates it. Only the oracle for the error
// subspace_iteration reports, which rotates the projection's A V instead.
double fresh_apply_error(const NuChi0Operator& op, double omega,
                         const la::Matrix<double>& v,
                         const std::vector<double>& mu) {
  la::Matrix<double> av(v.rows(), v.cols());
  op.apply(v, av, omega);
  double sum_res = 0.0, sum_d2 = 0.0;
  for (std::size_t j = 0; j < v.cols(); ++j) {
    double r2 = 0.0;
    for (std::size_t i = 0; i < v.rows(); ++i) {
      const double r = av(i, j) - mu[j] * v(i, j);
      r2 += r * r;
    }
    sum_res += std::sqrt(r2);
    sum_d2 += mu[j] * mu[j];
  }
  return sum_res / (static_cast<double>(v.cols()) * std::sqrt(sum_d2));
}

TEST(SubspaceIteration, RotatedImageErrorMatchesFreshApplyOracle) {
  TinySystem& t = tiny();
  const std::size_t n = t.built.ks.n_grid();
  const std::size_t n_eig = 8;
  const double omega = 0.69;
  SternheimerOptions sopts;
  sopts.tol = 1e-6;
  sopts.max_iter = 5000;
  NuChi0Operator op(t.built.ks, *t.built.klap, sopts);

  Rng rng(105);
  la::Matrix<double> v0(n, n_eig);
  for (std::size_t j = 0; j < n_eig; ++j) rng.fill_uniform(v0.col(j));

  // Pass k's error, both ways: replay exactly k filter passes from v0
  // (tol 0 never converges), then apply A afresh to the returned block.
  SubspaceOptions opts;
  opts.tol = 0.0;
  opts.cheb_degree = 4;
  constexpr int kPasses = 6;
  std::vector<double> rotated, fresh;
  for (int k = 0; k <= kPasses; ++k) {
    opts.max_filter_iter = k;
    la::Matrix<double> v = v0;
    const SubspaceResult res = subspace_iteration(op, omega, v, opts);
    ASSERT_EQ(res.filter_iterations, k);
    rotated.push_back(res.error);
    fresh.push_back(fresh_apply_error(op, omega, v, res.eigenvalues));
    // The two differ by the Sternheimer solves' inexactness alone.
    EXPECT_NEAR(rotated.back(), fresh.back(), sopts.tol) << k;
  }

  // Away from tol both estimates take the same filter-or-stop decision
  // at every pass, so they agree on ncheb.
  opts.tol = 1e-3;
  opts.max_filter_iter = kPasses;
  auto first_below = [&](const std::vector<double>& err) {
    for (int k = 0; k <= kPasses; ++k)
      if (err[static_cast<std::size_t>(k)] <= opts.tol) return k;
    return kPasses + 1;
  };
  for (int k = 0; k <= kPasses; ++k) {
    const std::size_t i = static_cast<std::size_t>(k);
    EXPECT_GT(std::abs(std::log(rotated[i] / opts.tol)), std::log(1.5)) << k;
    EXPECT_GT(std::abs(std::log(fresh[i] / opts.tol)), std::log(1.5)) << k;
  }
  const int ncheb = first_below(fresh);
  ASSERT_LE(ncheb, kPasses) << "fixture must converge within the replay";
  EXPECT_EQ(first_below(rotated), ncheb);
  la::Matrix<double> v = v0;
  const SubspaceResult res = subspace_iteration(op, omega, v, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.filter_iterations, ncheb);
}

TEST(SubspaceIteration, AppliesOncePerProjectionAndFilterStep) {
  TinySystem& t = tiny();
  const std::size_t n = t.built.ks.n_grid();
  const std::size_t n_eig = 8;
  SternheimerOptions sopts;
  sopts.tol = 1e-8;
  sopts.max_iter = 5000;
  NuChi0Operator op(t.built.ks, *t.built.klap, sopts);

  SubspaceOptions opts;
  opts.tol = 2e-3;
  opts.max_filter_iter = 60;
  opts.cheb_degree = 3;

  Rng rng(106);
  la::Matrix<double> v(n, n_eig);
  for (std::size_t j = 0; j < n_eig; ++j) rng.fill_uniform(v.col(j));

  // One application per Rayleigh-Ritz projection, cheb_degree per filter
  // pass, one more per eigensolve collapse — and none for the Eq. (7)
  // check. Re-solving the point just converged exits on the unfiltered
  // projection: one application in all.
  const auto quad = rpa_frequency_quadrature(8);
  std::vector<int> ncheb;
  for (int k : {6, 6, 7}) {
    const double omega = quad[static_cast<std::size_t>(k)].omega;
    long applies = 0;
    const SubspaceApply counting = [&](const la::Matrix<double>& in,
                                       la::Matrix<double>& out) {
      ++applies;
      op.apply(in, out, omega);
    };
    const SubspaceResult res = subspace_iteration(counting, omega, v, opts);
    ASSERT_TRUE(res.converged) << k;
    EXPECT_EQ(applies, 1 + res.filter_iterations * (opts.cheb_degree + 1) +
                           res.eigensolve_collapses)
        << k;
    ncheb.push_back(res.filter_iterations);
  }
  EXPECT_GT(ncheb[0], 0);
  EXPECT_EQ(ncheb[1], 0);
}

TEST(ComputeRpaEnergy, MatchesDirectOracleOnTinySystem) {
  TinySystem& t = tiny();
  RpaOptions opts = t.built.default_rpa_options();
  opts.n_eig = 32;  // a large fraction of the 343-point spectrum
  opts.stern.tol = 1e-6;
  opts.stern.max_iter = 5000;
  opts.tol_eig = {1e-4};
  opts.max_filter_iter = 80;
  opts.cheb_degree = 6;
  RpaResult res = compute_rpa_energy(t.built.ks, *t.built.klap, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.e_rpa, 0.0);

  // Direct oracle over the FULL spectrum; the n_eig-truncated iterative
  // value must capture the bulk of it (the spectrum decays rapidly).
  double e_direct = 0.0;
  const auto quad = rpa_frequency_quadrature(opts.ell);
  for (const QuadPoint& q : quad) {
    const std::vector<double> spec = direct::nu_chi0_spectrum(
        t.full_eig, t.built.ks.n_occ(), q.omega, *t.built.klap,
        t.built.h->grid().dv());
    double term = 0.0;
    for (double mu : spec) term += rpa_trace_term(mu);
    e_direct += q.weight * term / (2.0 * M_PI);
  }
  EXPECT_LT(res.e_rpa, 0.5 * e_direct);  // same sign, same magnitude range
  EXPECT_GT(res.e_rpa, 1.5 * e_direct);
  // Truncation only discards magnitude: |iterative| <= |direct| + tol.
  EXPECT_LE(std::abs(res.e_rpa), std::abs(e_direct) * 1.02 + 1e-6);
}

TEST(ComputeRpaEnergy, RecordsPerOmegaDiagnostics) {
  TinySystem& t = tiny();
  RpaOptions opts = t.built.default_rpa_options();
  opts.n_eig = 16;
  opts.ell = 4;
  opts.tol_eig = {4e-3, 2e-3};
  RpaResult res = compute_rpa_energy(t.built.ks, *t.built.klap, opts);
  ASSERT_EQ(res.per_omega.size(), 4u);
  for (std::size_t k = 1; k < 4; ++k)
    EXPECT_LT(res.per_omega[k].omega, res.per_omega[k - 1].omega);
  EXPECT_GT(res.timers.get(kernels::kNuChi0), 0.0);
  EXPECT_GT(res.timers.get(kernels::kEvalError), 0.0);
  EXPECT_GT(res.stern.total_chunks, 0);
}

TEST(SternheimerStats, MergeAccumulates) {
  SternheimerStats a, b;
  a.block_size_chunks[1] = 3;
  a.total_chunks = 3;
  a.matvec_columns = 10;
  b.block_size_chunks[1] = 1;
  b.block_size_chunks[2] = 4;
  b.total_chunks = 5;
  b.matvec_columns = 20;
  b.all_converged = false;
  a.merge(b);
  EXPECT_EQ(a.block_size_chunks[1], 4);
  EXPECT_EQ(a.block_size_chunks[2], 4);
  EXPECT_EQ(a.total_chunks, 8);
  EXPECT_EQ(a.matvec_columns, 30);
  EXPECT_FALSE(a.all_converged);
}

TEST(TraceEstimators, HutchinsonEstimatesTrace) {
  Rng mat_rng(7);
  const std::size_t n = 60;
  la::Matrix<double> a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const double v = mat_rng.uniform(-1, 1);
      a(i, j) = v;
      a(j, i) = v;
    }
  double exact = 0.0;
  for (std::size_t i = 0; i < n; ++i) exact += a(i, i);

  solver::BlockOpR op = [&a](const la::Matrix<double>& in,
                             la::Matrix<double>& out) {
    la::gemm_nn(1.0, a, in, 0.0, out);
  };
  Rng rng(8);
  const double est = hutchinson_trace(op, n, 400, rng);
  EXPECT_NEAR(est, exact, 0.25 * std::abs(exact) + 2.0);
}

TEST(TraceEstimators, SlqMatchesExactTraceOfMatrixFunction) {
  // Small SPD matrix: Tr exp(A) via SLQ vs dense eigendecomposition.
  Rng mat_rng(9);
  const std::size_t n = 40;
  la::Matrix<double> a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const double v = 0.1 * mat_rng.uniform(-1, 1);
      a(i, j) = v;
      a(j, i) = v;
    }
  la::EigResult eig = la::sym_eig(a);
  double exact = 0.0;
  for (double lam : eig.values) exact += std::exp(lam);

  solver::BlockOpR op = [&a](const la::Matrix<double>& in,
                             la::Matrix<double>& out) {
    la::gemm_nn(1.0, a, in, 0.0, out);
  };
  Rng rng(10);
  const double est = slq_trace(
      op, n, [](double x) { return std::exp(x); }, 60, 20, rng);
  EXPECT_NEAR(est, exact, 0.05 * exact);
}

TEST(TraceEstimators, SlqExactForLinearFunctionWithFullSteps) {
  // f(x) = x with lanczos_steps >= n: every probe is exact, so SLQ reduces
  // to the Hutchinson estimator of the trace.
  Rng mat_rng(11);
  const std::size_t n = 12;
  la::Matrix<double> a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const double v = mat_rng.uniform(-1, 1);
      a(i, j) = v;
      a(j, i) = v;
    }
  solver::BlockOpR op = [&a](const la::Matrix<double>& in,
                             la::Matrix<double>& out) {
    la::gemm_nn(1.0, a, in, 0.0, out);
  };
  Rng rng_a(12), rng_b(12);
  const double slq =
      slq_trace(op, n, [](double x) { return x; }, 50, static_cast<int>(n),
                rng_a);
  const double hutch = hutchinson_trace(op, n, 50, rng_b);
  EXPECT_NEAR(slq, hutch, 1e-8 * std::abs(hutch) + 1e-9);
}

TEST(Presets, TableIIIShapes) {
  for (std::size_t ncells : {1u, 2u, 5u}) {
    SystemPreset p = make_si_preset(ncells, /*paper_scale=*/true);
    EXPECT_EQ(p.n_atoms(), 8 * ncells);
    EXPECT_EQ(p.n_occ(), 16 * ncells);         // Table III n_s
    EXPECT_EQ(p.n_eig(), 768 * ncells);        // Table III n_eig
    EXPECT_EQ(p.n_grid(), 3375 * ncells);      // Table III n_d
  }
}

TEST(TolForPoint, EmptyVectorFallsBack) {
  RpaOptions opts;
  opts.ell = 4;
  opts.tol_eig = {};
  for (int k = 0; k < 4; ++k) EXPECT_EQ(tol_for_point(opts, k), 5e-4);
}

TEST(TolForPoint, ShortVectorPadsWithLastEntry) {
  RpaOptions opts;
  opts.ell = 5;
  opts.tol_eig = {4e-3, 2e-3};
  obs::EventLog events;
  EXPECT_EQ(tol_for_point(opts, 0, &events), 4e-3);
  EXPECT_EQ(tol_for_point(opts, 1, &events), 2e-3);
  EXPECT_EQ(tol_for_point(opts, 2, &events), 2e-3);
  EXPECT_EQ(tol_for_point(opts, 4, &events), 2e-3);
  // Padding is expected usage, not a configuration smell: no warning.
  EXPECT_TRUE(events.empty());
}

TEST(TolForPoint, OutOfRangePointThrows) {
  RpaOptions opts;
  opts.ell = 3;
  EXPECT_THROW(tol_for_point(opts, -1), Error);
  EXPECT_THROW(tol_for_point(opts, 3), Error);
}

TEST(Presets, VacancyReducesCounts) {
  SystemPreset p = make_si_preset(1, false);
  p.vacancy = true;
  EXPECT_EQ(p.n_atoms(), 7u);
  EXPECT_EQ(p.n_occ(), 14u);
  BuiltSystem b = build_system(p);
  EXPECT_EQ(b.ks.n_occ(), 14u);
  EXPECT_EQ(b.h->crystal().n_atoms(), 7u);
}

}  // namespace
}  // namespace rsrpa::rpa
