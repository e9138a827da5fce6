// ISDF backend suite: interpolation-point selection, the compressed
// nu^{1/2} chi0 nu^{1/2} spectrum against the dense-direct oracle,
// run-report/observability integration, cooperative cancel, and the
// cross-driver result invariants all four backends must satisfy.
// Labeled `isdf` so it can be run alone under -DRSRPA_SANITIZE=address/
// thread builds: ctest -L isdf.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "direct/direct_rpa.hpp"
#include "direct/dense.hpp"
#include "isdf/compressed.hpp"
#include "isdf/erpa_isdf.hpp"
#include "isdf/fit.hpp"
#include "isdf/points.hpp"
#include "obs/run_report.hpp"
#include "rpa/presets.hpp"
#include "sched/thread_pool.hpp"
#include "svc/driver.hpp"
#include "svc/job.hpp"

namespace rsrpa {
namespace {

// Small enough for a fast full diagonalization (n_d = 125, n_occ = 16),
// large enough that the pair space has real numerical structure.
rpa::BuiltSystem tiny_system() {
  rpa::SystemPreset p = rpa::make_si_preset(1, /*paper_scale=*/false);
  p.grid_per_cell = 5;
  p.fd_radius = 2;
  p.n_eig_per_atom = 2;  // n_eig = 16
  return rpa::build_system(p);
}

class IsdfTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { sys_ = new rpa::BuiltSystem(tiny_system()); }
  static void TearDownTestSuite() {
    delete sys_;
    sys_ = nullptr;
  }
  static rpa::BuiltSystem* sys_;
};

rpa::BuiltSystem* IsdfTest::sys_ = nullptr;

TEST_F(IsdfTest, VirtualPairWeightsAreFiniteAndPositive) {
  const la::EigResult eig = direct::full_diagonalization(*sys_->h);
  const std::size_t n_occ = sys_->ks.n_occ();
  std::vector<double> v = isdf::virtual_pair_weights(eig.values, n_occ, 0.05);
  ASSERT_EQ(v.size(), eig.values.size() - n_occ);
  for (double w : v) {
    EXPECT_TRUE(std::isfinite(w));
    EXPECT_GT(w, 0.0);  // all virtuals sit above the occupied mean here
  }
}

TEST_F(IsdfTest, SelectionIsDeterministicAndValid) {
  const la::EigResult eig = direct::full_diagonalization(*sys_->h);
  const std::size_t n_occ = sys_->ks.n_occ();
  const std::size_t n_d = sys_->ks.n_grid();
  std::vector<double> v = isdf::virtual_pair_weights(eig.values, n_occ, 0.05);

  isdf::PointSelection a =
      isdf::select_interpolation_points(eig, n_occ, v, 40, 4, Rng(123));
  isdf::PointSelection b =
      isdf::select_interpolation_points(eig, n_occ, v, 40, 4, Rng(123));
  EXPECT_EQ(a.points, b.points);

  ASSERT_EQ(a.points.size(), 40u);
  std::vector<bool> seen(n_d, false);
  for (std::size_t p : a.points) {
    ASSERT_LT(p, n_d);
    EXPECT_FALSE(seen[p]) << "duplicate interpolation point " << p;
    seen[p] = true;
  }
  ASSERT_EQ(a.r_diag.size(), 40u);
  for (std::size_t i = 1; i < a.r_diag.size(); ++i)
    EXPECT_LE(a.r_diag[i], a.r_diag[i - 1] + 1e-14);
}

TEST_F(IsdfTest, EnergyBitwiseStableAcrossThreadCounts) {
  isdf::IsdfRpaOptions opts;
  opts.ell = 2;
  opts.nip = 60;

  isdf::Compression serial_comp, threaded_comp;
  sched::set_global_threads(1);
  rpa::RpaResult serial = isdf::compute_rpa_energy_isdf(
      sys_->ks, *sys_->klap, opts, &serial_comp);
  sched::set_global_threads(4);
  rpa::RpaResult threaded = isdf::compute_rpa_energy_isdf(
      sys_->ks, *sys_->klap, opts, &threaded_comp);
  sched::set_global_threads(0);

  EXPECT_EQ(serial_comp.points, threaded_comp.points);
  EXPECT_EQ(serial.e_rpa, threaded.e_rpa);
  EXPECT_EQ(serial.e_rpa_per_atom, threaded.e_rpa_per_atom);
}

TEST_F(IsdfTest, FullRankFullTraceMatchesDirect) {
  const std::size_t n_d = sys_->ks.n_grid();
  rpa::RpaResult dres = direct::compute_direct_rpa(
      *sys_->h, sys_->ks.n_occ(), *sys_->klap, 4, /*n_keep=*/0);

  isdf::IsdfRpaOptions opts;
  opts.ell = 4;
  opts.nip = n_d;  // no compression: the interpolation basis is complete
  opts.n_eig = 0;  // full trace
  rpa::RpaResult ires =
      isdf::compute_rpa_energy_isdf(sys_->ks, *sys_->klap, opts);

  EXPECT_TRUE(ires.converged);
  EXPECT_NEAR(ires.e_rpa_per_atom, dres.e_rpa_per_atom, 5e-6);
}

TEST_F(IsdfTest, TruncatedTraceMatchesDirectTruncated) {
  const std::size_t n_d = sys_->ks.n_grid();
  const std::size_t n_keep = 16;
  rpa::RpaResult dres = direct::compute_direct_rpa(
      *sys_->h, sys_->ks.n_occ(), *sys_->klap, 4, n_keep);

  isdf::IsdfRpaOptions opts;
  opts.ell = 4;
  opts.nip = n_d;
  opts.n_eig = n_keep;
  isdf::Compression comp;
  rpa::RpaResult ires =
      isdf::compute_rpa_energy_isdf(sys_->ks, *sys_->klap, opts, &comp);

  EXPECT_EQ(comp.n_eig, n_keep);
  EXPECT_NEAR(ires.e_rpa_per_atom, dres.e_rpa_per_atom, 5e-6);
}

TEST_F(IsdfTest, EnergyConvergesWithNip) {
  rpa::RpaResult dres = direct::compute_direct_rpa(
      *sys_->h, sys_->ks.n_occ(), *sys_->klap, 2, /*n_keep=*/0);

  auto gap_at = [&](std::size_t nip) {
    isdf::IsdfRpaOptions opts;
    opts.ell = 2;
    opts.nip = nip;
    rpa::RpaResult r =
        isdf::compute_rpa_energy_isdf(sys_->ks, *sys_->klap, opts);
    return std::abs(r.e_rpa_per_atom - dres.e_rpa_per_atom);
  };

  const double coarse = gap_at(40);
  const double fine = gap_at(120);
  EXPECT_LT(fine, coarse + 1e-12);
  EXPECT_LT(fine, 1e-3);  // nip = 120 of n_d = 125 is near-exact
}

TEST_F(IsdfTest, RunReportJsonCarriesStandardFields) {
  isdf::IsdfRpaOptions opts;
  opts.ell = 3;
  opts.nip = 50;
  isdf::Compression comp;
  rpa::RpaResult res =
      isdf::compute_rpa_energy_isdf(sys_->ks, *sys_->klap, opts, &comp);

  obs::Json j = obs::to_json(res, &comp);
  ASSERT_NE(j.find("e_rpa"), nullptr);
  ASSERT_NE(j.find("e_rpa_per_atom"), nullptr);
  EXPECT_EQ(j.at("e_rpa").as_double(), res.e_rpa);
  EXPECT_EQ(static_cast<std::size_t>(j.at("nip").as_int()), comp.nip);
  ASSERT_NE(j.find("per_omega"), nullptr);
  EXPECT_EQ(j.at("per_omega").as_array().size(), 3u);
  // Every omega row must carry the standard telemetry the obs tooling
  // consumes: trace term, wall seconds, modeled flops/bytes.
  for (const obs::Json& row : j.at("per_omega").as_array()) {
    ASSERT_NE(row.find("e_term"), nullptr);
    ASSERT_NE(row.find("seconds"), nullptr);
    EXPECT_GT(row.at("matvec_flops").as_double(), 0.0);
    EXPECT_GT(row.at("matvec_bytes").as_double(), 0.0);
  }
  ASSERT_NE(j.find("timers"), nullptr);
  ASSERT_NE(j.at("timers").find(isdf::kernels::kAssemble), nullptr);
  // The selection event ships in the log.
  ASSERT_NE(j.find("events"), nullptr);
  bool saw_selected = false;
  for (const obs::Json& ev : j.at("events").as_array())
    if (ev.at("kind").as_string() == obs::events::kIsdfPointsSelected)
      saw_selected = true;
  EXPECT_TRUE(saw_selected);
}

// Every backend's result must satisfy the same bookkeeping invariants —
// per-atom energy consistent with the total, one row per quadrature point,
// positive wall time — so downstream tooling can treat the four reports
// uniformly. The payloads are append-only: each keeps every key its
// backend has reported before.
TEST(CrossDriver, ResultInvariantsHoldForAllFourMethods) {
  using Keys = std::vector<std::string>;
  // Top-level keys of each payload, and of each of its per_omega rows.
  const std::map<std::string, std::pair<Keys, Keys>> historical = {
      {"sternheimer",
       {{"e_rpa", "e_rpa_per_atom", "converged", "degraded", "total_seconds",
         "per_omega", "sternheimer", "timers", "events"},
        {"omega", "weight", "e_term", "filter_iterations", "error",
         "converged", "seconds", "matvec_bytes", "matvec_flops",
         "arithmetic_intensity", "eigenvalues"}}},
      {"direct",
       {{"e_rpa", "e_rpa_per_atom", "converged", "total_seconds",
         "diagonalization_seconds", "e_terms"},
        {}}},
      {"isdf",
       {{"e_rpa", "e_rpa_per_atom", "converged", "total_seconds",
         "diagonalization_seconds", "nip", "n_eig", "fit_ridge", "r_decay",
         "points", "per_omega", "timers", "events"},
        {"omega", "weight", "e_term", "filter_iterations", "error",
         "converged", "seconds", "matvec_bytes", "matvec_flops",
         "arithmetic_intensity", "eigenvalues"}}},
      {"slq",
       {{"e_rpa", "e_rpa_per_atom", "converged", "total_seconds",
         "matvec_columns", "per_omega", "events"},
        {"omega", "weight", "e_term", "n_probes", "lanczos_steps",
         "probe_stddev", "ci_halfwidth", "rel_ci", "matvec_columns",
         "seconds"}}},
  };
  for (const auto& [m, keys] : historical) {
    SCOPED_TRACE(m);
    std::string cfg;
    cfg += "GRID_PER_CELL: 5\n";
    cfg += "FD_RADIUS: 2\n";
    cfg += "N_EIG_PER_ATOM: 2\n";
    cfg += "N_NUCHI_EIGS: 16\n";
    cfg += "N_OMEGA: 2\n";
    cfg += "METHOD: " + m + "\n";
    const svc::JobSpec spec = svc::parse_job(Config::parse(cfg));
    rpa::BuiltSystem sys = rpa::build_system(spec.preset);
    svc::DriverRun run = svc::run_driver(spec, sys, spec.options, nullptr);
    const rpa::RpaResult& res = run.rpa;

    EXPECT_EQ(run.method, svc::method_from_string(m));
    EXPECT_EQ(res.method, m);
    EXPECT_TRUE(std::isfinite(res.e_rpa));
    EXPECT_LT(res.e_rpa, 0.0);  // correlation energy is negative
    const double n_atoms = static_cast<double>(spec.preset.n_atoms());
    EXPECT_NEAR(res.e_rpa_per_atom * n_atoms, res.e_rpa,
                1e-12 * std::abs(res.e_rpa));
    ASSERT_EQ(res.per_omega.size(), 2u);
    for (const rpa::OmegaRecord& rec : res.per_omega) {
      EXPECT_GT(rec.omega, 0.0);
      EXPECT_TRUE(std::isfinite(rec.e_term));
    }
    EXPECT_GT(res.total_seconds, 0.0);
    // The fields the benchmark harness reads mirror the record.
    EXPECT_EQ(run.e_rpa_per_atom, res.e_rpa_per_atom);
    EXPECT_EQ(run.converged, res.converged);
    EXPECT_EQ(run.degraded, res.degraded);
    EXPECT_EQ(run.has_rpa, m == "sternheimer");

    // The structured payload lands under the standard scalar names...
    EXPECT_NEAR(run.report.at("e_rpa").as_double(), res.e_rpa, 0.0);
    EXPECT_GT(run.report.at("total_seconds").as_double(), 0.0);
    // ...and keeps every historical key.
    for (const std::string& key : keys.first)
      EXPECT_NE(run.report.find(key), nullptr) << key;
    const obs::Json* rows = run.report.find("per_omega");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->as_array().size(), 2u);
    for (const obs::Json& row : rows->as_array())
      for (const std::string& key : keys.second)
        EXPECT_NE(row.find(key), nullptr) << "per_omega." << key;
  }
}

}  // namespace
}  // namespace rsrpa
