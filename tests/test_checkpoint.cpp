// Kill-and-resume tests for the run-checkpoint layer (io/checkpoint.hpp)
// and its driver wiring: a run killed right after any checkpoint and
// resumed from the file must reproduce the uninterrupted run's E_RPA,
// per-omega records, and run-report JSON bitwise (timing fields aside —
// wall clock is the one thing a restart legitimately changes). Labeled
// `checkpoint` in ctest so the suite can be run alone under
// -DRSRPA_SANITIZE=address builds.
//
// All runs here pin stern.dynamic_block = false: Algorithm 4 picks block
// sizes from measured wall time, which is exactly the kind of
// nondeterminism the resume-equivalence contract excludes (see
// docs/REPRODUCING.md, "Checkpoint and resume").
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "io/checkpoint.hpp"
#include "obs/run_report.hpp"
#include "rpa/erpa.hpp"
#include "rpa/erpa_slq.hpp"
#include "rpa/presets.hpp"

namespace rsrpa {
namespace {

// Timing and wall-clock-derived fields: legitimately different between a
// straight-through and a killed+resumed run, stripped before the JSON
// comparison. Everything else must match byte for byte.
bool timing_key(const std::string& k) {
  static const std::set<std::string> kStrip = {
      "seconds",        "total_seconds",
      "timers",         "arithmetic_intensity",
      "sched",          "modeled",
      "modeled_total_seconds", "apply_work_seconds",
      "rank_apply_seconds",    "rank_error_seconds",
      "rank_timers"};
  return kStrip.count(k) > 0;
}

obs::Json strip_timing(const obs::Json& j) {
  if (j.is_object()) {
    obs::Json out = obs::Json::object();
    for (const auto& [key, value] : j.as_object())
      if (!timing_key(key)) out[key] = strip_timing(value);
    return out;
  }
  if (j.is_array()) {
    obs::Json out = obs::Json::array();
    for (const obs::Json& v : j.as_array()) out.push_back(strip_timing(v));
    return out;
  }
  return j;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test process: ctest runs cases concurrently and a
    // shared path would let one process's TearDown delete another's files.
    dir_ = std::filesystem::temp_directory_path() /
           ("rsrpa_ckpt_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;

  static rpa::BuiltSystem& built() {
    static rpa::BuiltSystem b = [] {
      rpa::SystemPreset p = rpa::make_si_preset(1, false);
      p.grid_per_cell = 7;
      p.n_eig_per_atom = 2;  // n_eig = 16
      p.fd_radius = 3;
      return rpa::build_system(p);
    }();
    return b;
  }

  // Deterministic base configuration: fixed blocking so the computation
  // itself is schedule-independent and the bitwise contract applies.
  static rpa::RpaOptions base_options() {
    rpa::RpaOptions opts = built().default_rpa_options();
    opts.n_eig = 16;
    opts.ell = 3;
    opts.tol_eig = {4e-3, 2e-3, 2e-3};
    opts.stern.dynamic_block = false;
    opts.stern.fixed_block = 4;
    return opts;
  }

  // Persistent zero-matvec fault pinned to quadrature point 0, orbital 0
  // (the test_resilience drill): point 0 quarantines, the rest must not.
  static void add_point_fault(rpa::RpaOptions& opts) {
    opts.stern.fault.mode = solver::FaultMode::kZeroMatvec;
    opts.stern.fault.at_apply = 0;
    opts.stern.fault.period = 1;
    opts.stern.fault.max_faults = 1 << 30;
    opts.stern.fault.orbital = 0;
    opts.fault_omega = 0;
  }

  static void expect_bitwise_equal(const rpa::RpaResult& a,
                                   const rpa::RpaResult& b) {
    EXPECT_EQ(a.e_rpa, b.e_rpa);
    EXPECT_EQ(a.e_rpa_per_atom, b.e_rpa_per_atom);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.degraded, b.degraded);
    ASSERT_EQ(a.per_omega.size(), b.per_omega.size());
    for (std::size_t k = 0; k < a.per_omega.size(); ++k) {
      const rpa::OmegaRecord& ra = a.per_omega[k];
      const rpa::OmegaRecord& rb = b.per_omega[k];
      EXPECT_EQ(ra.e_term, rb.e_term) << "omega " << k;
      EXPECT_EQ(ra.error, rb.error) << "omega " << k;
      EXPECT_EQ(ra.eigenvalues, rb.eigenvalues) << "omega " << k;
      EXPECT_EQ(ra.quarantined_columns, rb.quarantined_columns);
      EXPECT_EQ(ra.quarantined_column_indices, rb.quarantined_column_indices);
    }
    EXPECT_EQ(strip_timing(obs::to_json(a)).dump(),
              strip_timing(obs::to_json(b)).dump());
  }
};

// ---------------------------------------------------------------------------
// Format layer.

TEST_F(CheckpointTest, RoundTripPreservesEveryField) {
  io::RunCheckpoint ck;
  ck.fingerprint = 0xdeadbeefcafef00dull;  // top bit set: stresses the
                                           // decimal-string encoding
  ck.completed_points = 2;
  ck.ell = 3;
  ck.e_rpa_partial = -1.2345678901234567;
  ck.degraded = true;
  ck.converged = false;
  ck.rng_state = Rng(42).save_state();
  for (int k = 0; k < 2; ++k) {
    rpa::OmegaRecord rec;
    rec.omega = 0.5 + k;
    rec.weight = 0.25 * (k + 1);
    rec.e_term = -0.125 * (k + 1);
    rec.converged = k == 1;
    rec.quarantined_columns = k == 0 ? 2 : 0;
    if (k == 0) rec.quarantined_column_indices = {3, 7};
    rec.eigenvalues = {-0.5, -0.25 - k};
    ck.per_omega.push_back(rec);
  }
  ck.stern.total_chunks = 11;
  ck.stern.block_size_chunks = {{4, 9}, {1, 2}};
  ck.stern.quarantined_columns = 2;
  ck.stern.quarantined_column_indices = {3, 7};
  ck.timers.add("nu_chi0", 1.5);
  ck.events.emit(obs::events::kQuadPointDegraded, "drill",
                 {{"omega_index", 0.0}});
  Rng vr(7);
  ck.v = la::Matrix<double>(13, 4);
  for (std::size_t j = 0; j < 4; ++j) vr.fill_uniform(ck.v.col(j));
  ck.rank_apply_seconds = {1.0, 2.0};
  ck.rank_error_seconds = {0.125, 0.5};

  io::save_run_checkpoint(path("rt.ckpt"), ck);
  io::RunCheckpoint r =
      io::load_run_checkpoint(path("rt.ckpt"), ck.fingerprint);

  EXPECT_EQ(r.fingerprint, ck.fingerprint);
  EXPECT_EQ(r.completed_points, 2);
  EXPECT_EQ(r.ell, 3);
  EXPECT_EQ(r.e_rpa_partial, ck.e_rpa_partial);
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.rng_state, ck.rng_state);
  ASSERT_EQ(r.per_omega.size(), 2u);
  EXPECT_EQ(r.per_omega[0].quarantined_column_indices,
            (std::vector<long>{3, 7}));
  EXPECT_EQ(r.per_omega[1].eigenvalues, ck.per_omega[1].eigenvalues);
  EXPECT_EQ(r.stern.total_chunks, 11);
  EXPECT_EQ(r.stern.block_size_chunks, ck.stern.block_size_chunks);
  EXPECT_EQ(r.stern.quarantined_column_indices, (std::vector<long>{3, 7}));
  EXPECT_EQ(r.timers.get("nu_chi0"), 1.5);
  EXPECT_EQ(r.events.size(), 1u);
  ASSERT_EQ(r.v.rows(), 13u);
  ASSERT_EQ(r.v.cols(), 4u);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 13; ++i) EXPECT_EQ(r.v(i, j), ck.v(i, j));
  EXPECT_EQ(r.rank_apply_seconds, ck.rank_apply_seconds);
  EXPECT_EQ(r.rank_error_seconds, ck.rank_error_seconds);
}

TEST_F(CheckpointTest, FingerprintSeparatesRunsThatMustNotResume) {
  auto& b = built();
  const rpa::RpaOptions opts = base_options();
  const std::uint64_t base = io::run_fingerprint(b.ks, opts);
  EXPECT_EQ(io::run_fingerprint(b.ks, opts), base);  // deterministic

  rpa::RpaOptions o2 = opts;
  o2.seed += 1;
  EXPECT_NE(io::run_fingerprint(b.ks, o2), base);
  rpa::RpaOptions o3 = opts;
  o3.tol_eig[1] = 2.0000000001e-3;
  EXPECT_NE(io::run_fingerprint(b.ks, o3), base);
  rpa::RpaOptions o4 = opts;
  o4.stern.tol *= 2;
  EXPECT_NE(io::run_fingerprint(b.ks, o4), base);
  // Same options, different rank count (serial vs 2 ranks).
  rpa::RpaOptions o6 = opts;
  o6.n_ranks = 2;
  EXPECT_NE(io::run_fingerprint(b.ks, o6), base);
  // The checkpoint policy itself must NOT move the fingerprint.
  rpa::RpaOptions o5 = opts;
  o5.checkpoint.path = "elsewhere.ckpt";
  o5.checkpoint.resume = true;
  o5.checkpoint.halt_after_point = 1;
  EXPECT_EQ(io::run_fingerprint(b.ks, o5), base);
}

TEST_F(CheckpointTest, TruncatedAndCorruptFilesAreRefused) {
  io::RunCheckpoint ck;
  ck.fingerprint = 1;
  ck.completed_points = 1;
  ck.ell = 2;
  ck.rng_state = Rng(1).save_state();
  ck.per_omega.emplace_back();
  ck.v = la::Matrix<double>(5, 2);
  io::save_run_checkpoint(path("c.ckpt"), ck);
  ASSERT_NO_THROW(io::load_run_checkpoint(path("c.ckpt")));

  // Torn write simulation: cut the file before the trailer.
  const auto full = std::filesystem::file_size(path("c.ckpt"));
  std::filesystem::copy_file(path("c.ckpt"), path("cut.ckpt"));
  std::filesystem::resize_file(path("cut.ckpt"), full - 8);
  EXPECT_THROW(io::load_run_checkpoint(path("cut.ckpt")), Error);
  std::filesystem::copy_file(path("c.ckpt"), path("half.ckpt"));
  std::filesystem::resize_file(path("half.ckpt"), full / 2);
  EXPECT_THROW(io::load_run_checkpoint(path("half.ckpt")), Error);

  std::ofstream bad(path("bad.ckpt"), std::ios::binary);
  bad << "NOTACKPT" << std::string(64, '\0');
  bad.close();
  EXPECT_THROW(io::load_run_checkpoint(path("bad.ckpt")), Error);

  // Fingerprint mismatch.
  EXPECT_THROW(io::load_run_checkpoint(path("c.ckpt"), 999), Error);
}

// ---------------------------------------------------------------------------
// Serial driver: kill after each quadrature point, resume, compare bitwise.

TEST_F(CheckpointTest, SerialKillAndResumeIsBitwiseIdentical) {
  auto& b = built();
  const rpa::RpaResult straight =
      rpa::compute_rpa_energy(b.ks, *b.klap, base_options());
  ASSERT_TRUE(std::isfinite(straight.e_rpa));

  for (int halt : {0, 1, 2}) {
    SCOPED_TRACE("halt after point " + std::to_string(halt));
    const std::string ckpt = path("serial.ckpt");
    std::filesystem::remove(ckpt);

    obs::EventLog lifecycle;
    rpa::RpaOptions killed = base_options();
    killed.checkpoint.path = ckpt;
    killed.checkpoint.events = &lifecycle;
    killed.checkpoint.halt_after_point = halt;
    EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, killed),
                 rpa::RunHalted);
    EXPECT_EQ(lifecycle.count(obs::events::kCheckpointWritten),
              static_cast<std::size_t>(halt + 1));
    ASSERT_TRUE(std::filesystem::exists(ckpt));

    obs::EventLog resumed_lifecycle;
    rpa::RpaOptions resumed = base_options();
    resumed.checkpoint.path = ckpt;
    resumed.checkpoint.resume = true;
    resumed.checkpoint.events = &resumed_lifecycle;
    const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, resumed);

    EXPECT_EQ(resumed_lifecycle.count(obs::events::kRunResumed), 1u);
    EXPECT_EQ(resumed_lifecycle.count(obs::events::kCheckpointWritten),
              static_cast<std::size_t>(2 - halt));
    // The lifecycle events stay out of the result log — it is part of the
    // bitwise contract.
    EXPECT_EQ(r.events.count(obs::events::kCheckpointWritten), 0u);
    EXPECT_EQ(r.events.count(obs::events::kRunResumed), 0u);
    expect_bitwise_equal(straight, r);
  }
}

TEST_F(CheckpointTest, SerialResumeAcrossAFaultedPointIsBitwiseIdentical) {
  // The injected fault quarantines columns at point 0, which exercises the
  // warm-start reseed before the point-0 checkpoint is written; the resume
  // must replay none of it and still match the straight-through run.
  auto& b = built();
  rpa::RpaOptions faulted = base_options();
  add_point_fault(faulted);
  const rpa::RpaResult straight =
      rpa::compute_rpa_energy(b.ks, *b.klap, faulted);
  ASSERT_TRUE(straight.degraded);
  ASSERT_GE(straight.events.count(obs::events::kWarmStartReseed), 1u);

  rpa::RpaOptions killed = faulted;
  killed.checkpoint.path = path("faulted.ckpt");
  killed.checkpoint.halt_after_point = 0;
  EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, killed),
               rpa::RunHalted);

  rpa::RpaOptions resumed = faulted;
  resumed.checkpoint.path = path("faulted.ckpt");
  resumed.checkpoint.resume = true;
  const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, resumed);
  expect_bitwise_equal(straight, r);
  // Downstream of the reseed the run is clean again.
  EXPECT_EQ(r.per_omega[1].quarantined_columns, 0);
  EXPECT_EQ(r.per_omega[2].quarantined_columns, 0);
}

TEST_F(CheckpointTest, MissingFileWithResumeStartsFresh) {
  auto& b = built();
  const rpa::RpaResult straight =
      rpa::compute_rpa_energy(b.ks, *b.klap, base_options());

  obs::EventLog lifecycle;
  rpa::RpaOptions opts = base_options();
  opts.checkpoint.path = path("fresh.ckpt");
  opts.checkpoint.resume = true;  // no file yet: fresh run, no error
  opts.checkpoint.events = &lifecycle;
  const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  EXPECT_EQ(lifecycle.count(obs::events::kRunResumed), 0u);
  EXPECT_EQ(lifecycle.count(obs::events::kCheckpointWritten), 3u);
  expect_bitwise_equal(straight, r);
}

TEST_F(CheckpointTest, ResumeRefusesAMismatchedConfiguration) {
  auto& b = built();
  rpa::RpaOptions killed = base_options();
  killed.checkpoint.path = path("m.ckpt");
  killed.checkpoint.halt_after_point = 0;
  EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, killed),
               rpa::RunHalted);

  // Different subspace seed -> different run: the fingerprint refuses.
  rpa::RpaOptions other = base_options();
  other.seed += 1;
  other.checkpoint.path = path("m.ckpt");
  other.checkpoint.resume = true;
  EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, other), Error);

  // A serial checkpoint cannot seed a ranked run either (the rank count
  // is part of the fingerprint)...
  rpa::RpaOptions ranked = base_options();
  ranked.checkpoint.path = path("m.ckpt");
  ranked.checkpoint.resume = true;
  ranked.n_ranks = 2;
  EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, ranked), Error);

  // ...and a 2-rank checkpoint seeds neither a serial nor a 4-rank run.
  rpa::RpaOptions killed2 = base_options();
  killed2.n_ranks = 2;
  killed2.checkpoint.path = path("m2.ckpt");
  killed2.checkpoint.halt_after_point = 0;
  EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, killed2),
               rpa::RunHalted);
  for (std::size_t p : {1u, 4u}) {
    SCOPED_TRACE("resume at p = " + std::to_string(p));
    rpa::RpaOptions other_p = base_options();
    other_p.n_ranks = p;
    other_p.checkpoint.path = path("m2.ckpt");
    other_p.checkpoint.resume = true;
    EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, other_p), Error);
  }
}

// ---------------------------------------------------------------------------
// Ranked runs: the checkpoint is cut at the rank-merge barrier.

TEST_F(CheckpointTest, ParallelKillAndResumeIsBitwiseIdentical) {
  auto& b = built();
  rpa::RpaOptions base = base_options();
  base.n_ranks = 2;
  const rpa::RpaResult straight = rpa::compute_rpa_energy(b.ks, *b.klap, base);
  ASSERT_TRUE(std::isfinite(straight.e_rpa));

  for (int halt : {0, 1, 2}) {
    SCOPED_TRACE("halt after point " + std::to_string(halt));
    const std::string ckpt = path("par.ckpt");
    std::filesystem::remove(ckpt);

    rpa::RpaOptions killed = base;
    killed.checkpoint.path = ckpt;
    killed.checkpoint.halt_after_point = halt;
    EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, killed),
                 rpa::RunHalted);

    obs::EventLog lifecycle;
    rpa::RpaOptions resumed = base;
    resumed.checkpoint.path = ckpt;
    resumed.checkpoint.resume = true;
    resumed.checkpoint.events = &lifecycle;
    const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, resumed);

    EXPECT_EQ(lifecycle.count(obs::events::kRunResumed), 1u);
    expect_bitwise_equal(straight, r);
    ASSERT_TRUE(r.ranks.has_value());
    EXPECT_EQ(r.ranks->apply_seconds.size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// SLQ driver: per-quadrature-point checkpointing (probe batches are the
// unit of work inside a point, but the durable cut is the point boundary —
// same contract as the Sternheimer drivers).

rpa::SlqRpaOptions slq_base_options() {
  rpa::SlqRpaOptions opts;
  opts.ell = 3;
  opts.n_probes = 4;
  opts.lanczos_steps = 6;
  opts.stern.dynamic_block = false;
  opts.stern.fixed_block = 4;
  return opts;
}

void expect_slq_bitwise_equal(const rpa::SlqRpaResult& a,
                              const rpa::SlqRpaResult& b) {
  EXPECT_EQ(a.e_rpa, b.e_rpa);
  EXPECT_EQ(a.e_rpa_per_atom, b.e_rpa_per_atom);
  EXPECT_EQ(a.e_terms, b.e_terms);
  EXPECT_EQ(a.matvec_columns, b.matvec_columns);
  ASSERT_EQ(a.per_omega.size(), b.per_omega.size());
  for (std::size_t k = 0; k < a.per_omega.size(); ++k) {
    const rpa::SlqOmegaRecord& ra = a.per_omega[k];
    const rpa::SlqOmegaRecord& rb = b.per_omega[k];
    EXPECT_EQ(ra.e_term, rb.e_term) << "omega " << k;
    EXPECT_EQ(ra.n_probes, rb.n_probes) << "omega " << k;
    EXPECT_EQ(ra.probe_stddev, rb.probe_stddev) << "omega " << k;
    EXPECT_EQ(ra.ci_halfwidth, rb.ci_halfwidth) << "omega " << k;
    EXPECT_EQ(ra.rel_ci, rb.rel_ci) << "omega " << k;
    EXPECT_EQ(ra.matvec_columns, rb.matvec_columns) << "omega " << k;
  }
  EXPECT_EQ(strip_timing(obs::to_json(a)).dump(),
            strip_timing(obs::to_json(b)).dump());
}

TEST_F(CheckpointTest, SlqCheckpointFieldsRoundTrip) {
  io::RunCheckpoint ck;
  ck.fingerprint = 0xabcdef0123456789ull;
  ck.slq = true;
  ck.completed_points = 1;
  ck.ell = 3;
  ck.e_rpa_partial = -0.5;
  ck.rng_state = Rng(9).save_state();
  rpa::SlqOmegaRecord rec;
  rec.omega = 2.5;
  rec.weight = 0.75;
  rec.e_term = -0.25;
  rec.n_probes = 8;
  rec.lanczos_steps = 6;
  rec.probe_stddev = 0.03125;
  rec.ci_halfwidth = 0.02166;
  rec.rel_ci = 0.08664;
  rec.matvec_columns = 48;
  ck.slq_per_omega.push_back(rec);
  // The V slot holds the 1x1 placeholder (the container requires a
  // non-empty matrix body; SLQ has no subspace to park there).
  ck.v = la::Matrix<double>(1, 1);

  io::save_run_checkpoint(path("slq_rt.ckpt"), ck);
  io::RunCheckpoint r =
      io::load_run_checkpoint(path("slq_rt.ckpt"), ck.fingerprint);

  EXPECT_TRUE(r.slq);
  EXPECT_EQ(r.completed_points, 1);
  ASSERT_EQ(r.slq_per_omega.size(), 1u);
  EXPECT_EQ(r.slq_per_omega[0].omega, rec.omega);
  EXPECT_EQ(r.slq_per_omega[0].e_term, rec.e_term);
  EXPECT_EQ(r.slq_per_omega[0].n_probes, rec.n_probes);
  EXPECT_EQ(r.slq_per_omega[0].lanczos_steps, rec.lanczos_steps);
  EXPECT_EQ(r.slq_per_omega[0].probe_stddev, rec.probe_stddev);
  EXPECT_EQ(r.slq_per_omega[0].ci_halfwidth, rec.ci_halfwidth);
  EXPECT_EQ(r.slq_per_omega[0].rel_ci, rec.rel_ci);
  EXPECT_EQ(r.slq_per_omega[0].matvec_columns, rec.matvec_columns);
  EXPECT_TRUE(r.per_omega.empty());
}

TEST_F(CheckpointTest, SlqFingerprintSeparatesRunsThatMustNotResume) {
  auto& b = built();
  const rpa::SlqRpaOptions opts = slq_base_options();
  const std::uint64_t base = io::slq_run_fingerprint(b.ks, opts);
  EXPECT_EQ(io::slq_run_fingerprint(b.ks, opts), base);  // deterministic

  rpa::SlqRpaOptions o2 = opts;
  o2.seed += 1;
  EXPECT_NE(io::slq_run_fingerprint(b.ks, o2), base);
  rpa::SlqRpaOptions o3 = opts;
  o3.n_probes += 1;
  EXPECT_NE(io::slq_run_fingerprint(b.ks, o3), base);
  rpa::SlqRpaOptions o4 = opts;
  o4.lanczos_steps += 1;
  EXPECT_NE(io::slq_run_fingerprint(b.ks, o4), base);
  rpa::SlqRpaOptions o5 = opts;
  o5.target_rel_ci = 0.05;
  EXPECT_NE(io::slq_run_fingerprint(b.ks, o5), base);
  rpa::SlqRpaOptions o6 = opts;
  o6.max_probes = 64;
  EXPECT_NE(io::slq_run_fingerprint(b.ks, o6), base);
  // The checkpoint policy itself must NOT move the fingerprint.
  rpa::SlqRpaOptions o7 = opts;
  o7.checkpoint.path = "elsewhere.ckpt";
  o7.checkpoint.resume = true;
  EXPECT_EQ(io::slq_run_fingerprint(b.ks, o7), base);
  // Distinct domain tag: an SLQ fingerprint can never collide with the
  // Sternheimer fingerprint of the same physical system.
  EXPECT_NE(base, io::run_fingerprint(b.ks, base_options()));
}

TEST_F(CheckpointTest, SlqKillAndResumeIsBitwiseIdentical) {
  auto& b = built();
  const rpa::SlqRpaOptions base = slq_base_options();
  const rpa::SlqRpaResult straight =
      rpa::compute_rpa_energy_slq(b.ks, *b.klap, base);
  ASSERT_TRUE(std::isfinite(straight.e_rpa));

  for (int halt : {0, 1}) {
    SCOPED_TRACE("halt after point " + std::to_string(halt));
    const std::string ckpt = path("slq.ckpt");
    std::filesystem::remove(ckpt);

    rpa::SlqRpaOptions killed = base;
    killed.checkpoint.path = ckpt;
    killed.checkpoint.halt_after_point = halt;
    EXPECT_THROW(rpa::compute_rpa_energy_slq(b.ks, *b.klap, killed),
                 rpa::RunHalted);

    obs::EventLog lifecycle;
    rpa::SlqRpaOptions resumed = base;
    resumed.checkpoint.path = ckpt;
    resumed.checkpoint.resume = true;
    resumed.checkpoint.events = &lifecycle;
    const rpa::SlqRpaResult r =
        rpa::compute_rpa_energy_slq(b.ks, *b.klap, resumed);

    EXPECT_EQ(lifecycle.count(obs::events::kRunResumed), 1u);
    // Lifecycle events stay out of the result log — the resumed result
    // must be indistinguishable from the uninterrupted one.
    EXPECT_EQ(r.events.count(obs::events::kRunResumed), 0u);
    expect_slq_bitwise_equal(straight, r);
  }
}

TEST_F(CheckpointTest, SlqAdaptiveKillAndResumeIsBitwiseIdentical) {
  // The adaptive stop rule draws a data-dependent number of probes per
  // point from the shared RNG stream; resume must replay the completed
  // points' probe counts from the records, not re-decide them.
  auto& b = built();
  rpa::SlqRpaOptions base = slq_base_options();
  base.target_rel_ci = 0.10;
  base.max_probes = 12;
  const rpa::SlqRpaResult straight =
      rpa::compute_rpa_energy_slq(b.ks, *b.klap, base);
  ASSERT_TRUE(std::isfinite(straight.e_rpa));

  const std::string ckpt = path("slq_adaptive.ckpt");
  rpa::SlqRpaOptions killed = base;
  killed.checkpoint.path = ckpt;
  killed.checkpoint.halt_after_point = 1;
  EXPECT_THROW(rpa::compute_rpa_energy_slq(b.ks, *b.klap, killed),
               rpa::RunHalted);

  rpa::SlqRpaOptions resumed = base;
  resumed.checkpoint.path = ckpt;
  resumed.checkpoint.resume = true;
  const rpa::SlqRpaResult r =
      rpa::compute_rpa_energy_slq(b.ks, *b.klap, resumed);
  expect_slq_bitwise_equal(straight, r);
}

TEST_F(CheckpointTest, SlqAndSternheimerCheckpointsDoNotCrossResume) {
  auto& b = built();

  // A Sternheimer checkpoint must not seed an SLQ resume.
  rpa::RpaOptions stern = base_options();
  stern.checkpoint.path = path("stern_x.ckpt");
  stern.checkpoint.halt_after_point = 0;
  EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, stern), rpa::RunHalted);
  rpa::SlqRpaOptions slq = slq_base_options();
  slq.checkpoint.path = path("stern_x.ckpt");
  slq.checkpoint.resume = true;
  EXPECT_THROW(rpa::compute_rpa_energy_slq(b.ks, *b.klap, slq), Error);

  // And the reverse: an SLQ checkpoint must not seed a Sternheimer resume.
  rpa::SlqRpaOptions slq2 = slq_base_options();
  slq2.checkpoint.path = path("slq_x.ckpt");
  slq2.checkpoint.halt_after_point = 0;
  EXPECT_THROW(rpa::compute_rpa_energy_slq(b.ks, *b.klap, slq2),
               rpa::RunHalted);
  rpa::RpaOptions stern2 = base_options();
  stern2.checkpoint.path = path("slq_x.ckpt");
  stern2.checkpoint.resume = true;
  EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, stern2), Error);
}

}  // namespace
}  // namespace rsrpa
