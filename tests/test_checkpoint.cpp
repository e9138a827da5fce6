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
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "common/rng.hpp"
#include "io/checkpoint.hpp"
#include "obs/run_report.hpp"
#include "rpa/erpa.hpp"
#include "rpa/erpa_slq.hpp"
#include "rpa/presets.hpp"
#include "strip_timing.hpp"
#include "support/ranked.hpp"

namespace rsrpa {
namespace {

// Copy checkpoint `src` to `dst` with its JSON payload changed by `edit`
// (the container: magic, u64 payload length, payload, V, trailer).
void rewrite_payload(const std::string& src, const std::string& dst,
                     const std::function<void(obs::Json&)>& edit) {
  std::ifstream in(src, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::uint64_t len = 0;
  std::memcpy(&len, bytes.data() + 8, sizeof len);
  obs::Json payload = obs::Json::parse(bytes.substr(16, len));
  edit(payload);
  const std::string text = payload.dump();
  const std::uint64_t new_len = text.size();
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), 8);
  out.write(reinterpret_cast<const char*>(&new_len), sizeof new_len);
  out << text << bytes.substr(16 + len);
}

// The message of the Error `run` throws ("" and a test failure if none).
std::string error_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an Error";
  return "";
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
    opts.stern.fault.omega = 0;
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

// One round trip per checkpointing method: the Sternheimer record carries
// quarantine telemetry, solver statistics and a warm-start subspace; the
// SLQ record carries probe statistics, no eigenvalues and the 1x1 V
// placeholder (the container requires a non-empty matrix body).
rpa::RpaResult sternheimer_record() {
  rpa::RpaResult res;
  res.e_rpa = -1.2345678901234567;
  res.degraded = true;
  res.converged = false;
  for (int k = 0; k < 2; ++k) {
    rpa::OmegaRecord rec;
    rec.omega = 0.5 + k;
    rec.weight = 0.25 * (k + 1);
    rec.e_term = -0.125 * (k + 1);
    rec.converged = k == 1;
    rec.quarantined_columns = k == 0 ? 2 : 0;
    if (k == 0) rec.quarantined_column_indices = {3, 7};
    rec.eigenvalues = {-0.5, -0.25 - k};
    res.per_omega.push_back(rec);
  }
  res.stern.total_chunks = 11;
  res.stern.block_size_chunks = {{4, 9}, {1, 2}};
  res.stern.quarantined_columns = 2;
  res.stern.quarantined_column_indices = {3, 7};
  res.timers.add("nu_chi0", 1.5);
  res.events.emit(obs::events::kQuadPointDegraded, "drill",
                  {{"omega_index", 0.0}});
  return res;
}

rpa::RpaResult slq_record() {
  rpa::RpaResult res;
  res.method = rpa::methods::kSlq;
  res.e_rpa = -0.5;
  rpa::OmegaRecord rec;
  rec.omega = 2.5;
  rec.weight = 0.75;
  rec.e_term = -0.25;
  rec.converged = true;
  rpa::ProbeStats& p = rec.probes.emplace();
  p.n_probes = 8;
  p.lanczos_steps = 6;
  p.probe_stddev = 0.03125;
  p.ci_halfwidth = 0.02166;
  p.rel_ci = 0.08664;
  p.matvec_columns = 48;
  res.per_omega.push_back(rec);
  res.events.emit(obs::events::kSlqOmegaEstimate, "drill",
                  {{"omega_index", 0.0}});
  return res;
}

// Save `record` with a v_rows x v_cols warm-start block to `file`, load
// it back and require every field to survive.
void expect_round_trip(const std::string& file, const rpa::RpaResult& record,
                       std::size_t v_rows, std::size_t v_cols) {
  io::RunCheckpoint ck;
  ck.fingerprint = 0xdeadbeefcafef00dull;  // top bit set: stresses the
                                           // decimal-string encoding
  ck.ell = 3;
  ck.rng_state = Rng(42).save_state();
  ck.result = record;
  Rng vr(7);
  ck.v = la::Matrix<double>(v_rows, v_cols);
  for (std::size_t j = 0; j < v_cols; ++j) vr.fill_uniform(ck.v.col(j));

  io::save_run_checkpoint(file, ck);
  const io::RunCheckpoint r = io::load_run_checkpoint(file, ck.fingerprint);

  EXPECT_EQ(r.fingerprint, ck.fingerprint);
  EXPECT_EQ(r.ell, ck.ell);
  EXPECT_EQ(r.rng_state, ck.rng_state);
  EXPECT_EQ(r.completed_points(), ck.completed_points());
  EXPECT_EQ(r.result.method, ck.result.method);
  // The record, every field of it, through its run-report form; probe
  // statistics and Sternheimer block histograms compared directly too.
  EXPECT_EQ(obs::to_json(r.result).dump(), obs::to_json(ck.result).dump());
  EXPECT_EQ(r.result.stern.block_size_chunks,
            ck.result.stern.block_size_chunks);
  ASSERT_EQ(r.result.per_omega.size(), ck.result.per_omega.size());
  for (std::size_t k = 0; k < r.result.per_omega.size(); ++k) {
    const rpa::OmegaRecord& a = r.result.per_omega[k];
    const rpa::OmegaRecord& b = ck.result.per_omega[k];
    EXPECT_EQ(a.eigenvalues, b.eigenvalues);
    EXPECT_EQ(a.quarantined_column_indices, b.quarantined_column_indices);
    ASSERT_EQ(a.probes.has_value(), b.probes.has_value());
    if (a.probes) {
      EXPECT_EQ(a.probes->n_probes, b.probes->n_probes);
      EXPECT_EQ(a.probes->lanczos_steps, b.probes->lanczos_steps);
      EXPECT_EQ(a.probes->probe_stddev, b.probes->probe_stddev);
      EXPECT_EQ(a.probes->ci_halfwidth, b.probes->ci_halfwidth);
      EXPECT_EQ(a.probes->rel_ci, b.probes->rel_ci);
      EXPECT_EQ(a.probes->matvec_columns, b.probes->matvec_columns);
    }
  }
  ASSERT_EQ(r.v.rows(), v_rows);
  ASSERT_EQ(r.v.cols(), v_cols);
  for (std::size_t j = 0; j < v_cols; ++j)
    for (std::size_t i = 0; i < v_rows; ++i) EXPECT_EQ(r.v(i, j), ck.v(i, j));
}

TEST_F(CheckpointTest, RoundTripPreservesEveryField) {
  expect_round_trip(path("rt.ckpt"), sternheimer_record(), 13, 4);
}

TEST_F(CheckpointTest, SlqCheckpointFieldsRoundTrip) {
  expect_round_trip(path("rt.ckpt"), slq_record(), 1, 1);
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
  rpa::RpaOptions o7 = opts;
  o7.stern.fault.omega = 1;
  EXPECT_NE(io::run_fingerprint(b.ks, o7), base);
  // Same options through an apply hook (the plain apply vs ranked
  // slices, say).
  rpa::RpaOptions o6 = opts;
  o6.apply_hook = [](const rpa::NuChi0Operator&, double,
                     const la::Matrix<double>&, la::Matrix<double>&,
                     rpa::SternheimerStats&, obs::EventLog&) {};
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
  ck.ell = 2;
  ck.rng_state = Rng(1).save_state();
  ck.result.per_omega.emplace_back();
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

  // Untrusted numbers in the payload must parse in full or be refused
  // with Error: a negative, a trailing-garbage and a non-numeric
  // fingerprint, and the same strings as block-size histogram keys.
  for (const char* bad_number : {"-5", "12x", "abc"}) {
    SCOPED_TRACE(bad_number);
    rewrite_payload(path("c.ckpt"), path("num.ckpt"), [&](obs::Json& j) {
      j["fingerprint"] = bad_number;
    });
    EXPECT_THROW(io::load_run_checkpoint(path("num.ckpt")), Error);
    rewrite_payload(path("c.ckpt"), path("num.ckpt"), [&](obs::Json& j) {
      j["result"]["sternheimer"]["block_size_chunks"][bad_number] = 1;
    });
    EXPECT_THROW(io::load_run_checkpoint(path("num.ckpt")), Error);
  }

  // A file of another format version is refused by version, not misread:
  // version 2 stored the record's fields one by one.
  for (const int version : {1, 2}) {
    SCOPED_TRACE(version);
    rewrite_payload(path("c.ckpt"), path("old.ckpt"),
                    [&](obs::Json& j) { j["version"] = version; });
    const std::string error =
        error_of([&] { io::load_run_checkpoint(path("old.ckpt")); });
    EXPECT_NE(error.find("unsupported format version " +
                         std::to_string(version)),
              std::string::npos)
        << error;
  }
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

// rpa::tol_for_point's warning, checked through the driver, whose call
// pattern is what makes it one per run.
using TolForPoint = CheckpointTest;

TEST_F(TolForPoint, LongVectorWarnsExactlyOnce) {
  // TOL_EIG longer than N_OMEGA: the excess is ignored with one
  // tol_eig_truncated notice per run, straight or resumed. The driver
  // passes its log at point 0 only, which a resumed run never reruns: the
  // restored log already has the notice.
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  opts.tol_eig = {4e-3, 2e-3, 2e-3, 1e-3};
  const rpa::RpaResult straight = rpa::compute_rpa_energy(b.ks, *b.klap, opts);
  ASSERT_EQ(straight.events.count(obs::events::kTolEigTruncated), 1u);
  const obs::Event& e = straight.events.events().front();
  EXPECT_EQ(e.kind, obs::events::kTolEigTruncated);
  EXPECT_EQ(e.fields[0].second, 4.0);  // tol_eig_entries
  EXPECT_EQ(e.fields[1].second, 3.0);  // ell

  for (int halt : {0, 1}) {
    SCOPED_TRACE("halt after point " + std::to_string(halt));
    const std::string ckpt = path("tol.ckpt");
    std::filesystem::remove(ckpt);
    rpa::RpaOptions killed = opts;
    killed.checkpoint.path = ckpt;
    killed.checkpoint.halt_after_point = halt;
    EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, killed),
                 rpa::RunHalted);
    rpa::RpaOptions resumed = opts;
    resumed.checkpoint.path = ckpt;
    resumed.checkpoint.resume = true;
    const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, resumed);
    EXPECT_EQ(r.events.count(obs::events::kTolEigTruncated), 1u);
    expect_bitwise_equal(straight, r);
  }
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

  // A serial checkpoint cannot seed a ranked run either (the apply hook
  // is part of the fingerprint)...
  rpa::RpaOptions ranked = base_options();
  ranked.checkpoint.path = path("m.ckpt");
  ranked.checkpoint.resume = true;
  EXPECT_THROW(par::run_ranked(b.ks, *b.klap, ranked, 2), Error);

  // ...and a 2-rank checkpoint seeds neither a serial nor a 4-rank run
  // (the block-size cap n_eig / p is part of it too).
  rpa::RpaOptions killed2 = base_options();
  killed2.checkpoint.path = path("m2.ckpt");
  killed2.checkpoint.halt_after_point = 0;
  EXPECT_THROW(par::run_ranked(b.ks, *b.klap, killed2, 2), rpa::RunHalted);
  rpa::RpaOptions other_p = base_options();
  other_p.checkpoint.path = path("m2.ckpt");
  other_p.checkpoint.resume = true;
  EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, other_p), Error);
  EXPECT_THROW(par::run_ranked(b.ks, *b.klap, other_p, 4), Error);
}

// ---------------------------------------------------------------------------
// Ranked runs: the checkpoint is cut at the rank-merge barrier.

TEST_F(CheckpointTest, ParallelKillAndResumeIsBitwiseIdentical) {
  auto& b = built();
  const rpa::RpaOptions base = base_options();
  const rpa::RpaResult straight =
      par::run_ranked(b.ks, *b.klap, base, 2).result;
  ASSERT_TRUE(std::isfinite(straight.e_rpa));

  for (int halt : {0, 1, 2}) {
    SCOPED_TRACE("halt after point " + std::to_string(halt));
    const std::string ckpt = path("par.ckpt");
    std::filesystem::remove(ckpt);

    rpa::RpaOptions killed = base;
    killed.checkpoint.path = ckpt;
    killed.checkpoint.halt_after_point = halt;
    EXPECT_THROW(par::run_ranked(b.ks, *b.klap, killed, 2), rpa::RunHalted);

    obs::EventLog lifecycle;
    rpa::RpaOptions resumed = base;
    resumed.checkpoint.path = ckpt;
    resumed.checkpoint.resume = true;
    resumed.checkpoint.events = &lifecycle;
    const par::RankedRun r = par::run_ranked(b.ks, *b.klap, resumed, 2);

    EXPECT_EQ(lifecycle.count(obs::events::kRunResumed), 1u);
    expect_bitwise_equal(straight, r.result);
    EXPECT_EQ(r.apply_seconds.size(), 2u);
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

void expect_slq_bitwise_equal(const rpa::RpaResult& a,
                              const rpa::RpaResult& b) {
  EXPECT_EQ(a.e_rpa, b.e_rpa);
  EXPECT_EQ(a.e_rpa_per_atom, b.e_rpa_per_atom);
  EXPECT_EQ(rpa::slq_matvec_columns(a), rpa::slq_matvec_columns(b));
  ASSERT_EQ(a.per_omega.size(), b.per_omega.size());
  for (std::size_t k = 0; k < a.per_omega.size(); ++k) {
    const rpa::OmegaRecord& ra = a.per_omega[k];
    const rpa::OmegaRecord& rb = b.per_omega[k];
    EXPECT_EQ(ra.e_term, rb.e_term) << "omega " << k;
    ASSERT_TRUE(ra.probes && rb.probes) << "omega " << k;
    EXPECT_EQ(ra.probes->n_probes, rb.probes->n_probes) << "omega " << k;
    EXPECT_EQ(ra.probes->probe_stddev, rb.probes->probe_stddev)
        << "omega " << k;
    EXPECT_EQ(ra.probes->ci_halfwidth, rb.probes->ci_halfwidth)
        << "omega " << k;
    EXPECT_EQ(ra.probes->rel_ci, rb.probes->rel_ci) << "omega " << k;
    EXPECT_EQ(ra.probes->matvec_columns, rb.probes->matvec_columns)
        << "omega " << k;
  }
  EXPECT_EQ(strip_timing(obs::to_json(a)).dump(),
            strip_timing(obs::to_json(b)).dump());
}

TEST_F(CheckpointTest, SlqFingerprintSeparatesRunsThatMustNotResume) {
  auto& b = built();
  const rpa::SlqRpaOptions opts = slq_base_options();
  const std::uint64_t base = io::run_fingerprint(b.ks, opts);
  EXPECT_EQ(io::run_fingerprint(b.ks, opts), base);  // deterministic

  rpa::SlqRpaOptions o2 = opts;
  o2.seed += 1;
  EXPECT_NE(io::run_fingerprint(b.ks, o2), base);
  rpa::SlqRpaOptions o3 = opts;
  o3.n_probes += 1;
  EXPECT_NE(io::run_fingerprint(b.ks, o3), base);
  rpa::SlqRpaOptions o4 = opts;
  o4.lanczos_steps += 1;
  EXPECT_NE(io::run_fingerprint(b.ks, o4), base);
  rpa::SlqRpaOptions o5 = opts;
  o5.target_rel_ci = 0.05;
  EXPECT_NE(io::run_fingerprint(b.ks, o5), base);
  rpa::SlqRpaOptions o6 = opts;
  o6.max_probes = 64;
  EXPECT_NE(io::run_fingerprint(b.ks, o6), base);
  rpa::SlqRpaOptions o8 = opts;
  o8.stern.fault.omega = 1;
  EXPECT_NE(io::run_fingerprint(b.ks, o8), base);
  // The checkpoint policy itself must NOT move the fingerprint.
  rpa::SlqRpaOptions o7 = opts;
  o7.checkpoint.path = "elsewhere.ckpt";
  o7.checkpoint.resume = true;
  EXPECT_EQ(io::run_fingerprint(b.ks, o7), base);
  // The method enters the one fingerprint domain: an SLQ fingerprint
  // differs from the Sternheimer fingerprint of the same physical system.
  EXPECT_NE(base, io::run_fingerprint(b.ks, base_options()));
}

TEST_F(CheckpointTest, SlqKillAndResumeIsBitwiseIdentical) {
  auto& b = built();
  const rpa::SlqRpaOptions base = slq_base_options();
  const rpa::RpaResult straight =
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
    const rpa::RpaResult r =
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
  const rpa::RpaResult straight =
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
  const rpa::RpaResult r =
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
  const std::string slq_error = error_of(
      [&] { rpa::compute_rpa_energy_slq(b.ks, *b.klap, slq); });
  EXPECT_NE(slq_error.find("written by the sternheimer driver"),
            std::string::npos)
      << slq_error;
  EXPECT_NE(slq_error.find("resume the slq driver"), std::string::npos)
      << slq_error;

  // And the reverse: an SLQ checkpoint must not seed a Sternheimer resume.
  rpa::SlqRpaOptions slq2 = slq_base_options();
  slq2.checkpoint.path = path("slq_x.ckpt");
  slq2.checkpoint.halt_after_point = 0;
  EXPECT_THROW(rpa::compute_rpa_energy_slq(b.ks, *b.klap, slq2),
               rpa::RunHalted);
  rpa::RpaOptions stern2 = base_options();
  stern2.checkpoint.path = path("slq_x.ckpt");
  stern2.checkpoint.resume = true;
  const std::string stern_error = error_of(
      [&] { rpa::compute_rpa_energy(b.ks, *b.klap, stern2); });
  EXPECT_NE(stern_error.find("written by the slq driver"), std::string::npos)
      << stern_error;
  EXPECT_NE(stern_error.find("resume the sternheimer driver"),
            std::string::npos)
      << stern_error;
}

}  // namespace
}  // namespace rsrpa
