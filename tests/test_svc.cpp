// Multi-tenant job service suite, labeled `svc` in ctest so it can be
// run alone under -DRSRPA_SANITIZE=address/thread builds.
//
// The load-bearing property throughout: a job run by the service — on a
// shared pool under a task quota, checkpoint-preempted and resumed,
// next to unrelated tenants — produces E_RPA, per-omega records and a
// run report bitwise identical to the same config run standalone. All
// bitwise configs pin DYNAMIC_BLOCK: 0 (Algorithm 4 keys off wall clock,
// which is exactly what the reproducibility contract excludes).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/run_report.hpp"
#include "rpa/presets.hpp"
#include "sched/parallel_for.hpp"
#include "sched/thread_pool.hpp"
#include "strip_timing.hpp"
#include "svc/driver.hpp"
#include "svc/service.hpp"

namespace rsrpa {
namespace {

namespace fs = std::filesystem;

void expect_bitwise_equal(const rpa::RpaResult& a, const rpa::RpaResult& b) {
  EXPECT_EQ(a.e_rpa, b.e_rpa);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.degraded, b.degraded);
  ASSERT_EQ(a.per_omega.size(), b.per_omega.size());
  for (std::size_t k = 0; k < a.per_omega.size(); ++k) {
    EXPECT_EQ(a.per_omega[k].e_term, b.per_omega[k].e_term) << "omega " << k;
    EXPECT_EQ(a.per_omega[k].eigenvalues, b.per_omega[k].eigenvalues)
        << "omega " << k;
  }
  EXPECT_EQ(strip_timing(obs::to_json(a)).dump(),
            strip_timing(obs::to_json(b)).dump());
}

/// The deterministic tiny fixture (test_checkpoint's): Si8 on a 7^3 grid,
/// 16 eigenvalues, fixed Sternheimer blocking.
std::string tiny_rpa(std::uint64_t seed, int n_omega, int priority = 0,
                     int quota = 0, const std::string& extra = "") {
  std::string s;
  s += "GRID_PER_CELL: 7\n";
  s += "FD_RADIUS: 3\n";
  s += "N_NUCHI_EIGS: 16\n";
  s += "N_EIG_PER_ATOM: 2\n";
  s += "N_OMEGA: " + std::to_string(n_omega) + "\n";
  s += "TOL_EIG: 4e-3 2e-3 2e-3\n";
  s += "DYNAMIC_BLOCK: 0\n";
  s += "BLOCK_SIZE: 4\n";
  s += "SEED: " + std::to_string(seed) + "\n";
  s += "PRIORITY: " + std::to_string(priority) + "\n";
  s += "THREADS: " + std::to_string(quota) + "\n";
  s += extra;
  return s;
}

/// The test_resilience drill as job keys: persistent zero-matvec fault
/// pinned to quadrature point 0, orbital 0 — the run survives degraded.
std::string fault_keys() {
  return "FAULT_MODE: zero\nFAULT_AT_APPLY: 0\nFAULT_PERIOD: 1\n"
         "FAULT_MAX: 1073741824\nFAULT_ORBITAL: 0\nFAULT_OMEGA: 0\n";
}

/// Standalone oracle: same parse path as the service, no checkpoint, no
/// quota, no control — plain compute_rpa_energy.
rpa::RpaResult run_standalone(const std::string& rpa_text) {
  const svc::JobSpec spec = svc::parse_job(Config::parse(rpa_text));
  rpa::BuiltSystem sys = rpa::build_system(spec.preset);
  return rpa::compute_rpa_energy(sys.ks, *sys.klap, spec.options);
}

class SvcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rsrpa_svc_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string root() const { return (dir_ / "spool").string(); }
  std::string path(const char* name) const { return (dir_ / name).string(); }

  /// Poll a live status until `state` is reached (or any terminal state).
  svc::JobStatus wait_state(svc::JobService& service, const std::string& id,
                            svc::JobState state, double timeout_s = 120.0) {
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
      const svc::JobStatus st = service.status(id);
      if (st.state == state || st.state == svc::JobState::kDone ||
          st.state == svc::JobState::kFailed ||
          st.state == svc::JobState::kCancelled)
        return st;
      if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0).count() > timeout_s)
        return st;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------
// parse_job

TEST(SvcJob, ParseDefaultsMatchPresetRun) {
  const svc::JobSpec spec = svc::parse_job(Config::parse(""));
  const rpa::BuiltSystem sys = rpa::build_system(spec.preset);
  const rpa::RpaOptions ref = sys.default_rpa_options();
  EXPECT_EQ(spec.options.n_eig, ref.n_eig);
  EXPECT_EQ(spec.options.ell, ref.ell);
  EXPECT_EQ(spec.options.stern.tol, ref.stern.tol);
  EXPECT_EQ(spec.options.cheb_degree, ref.cheb_degree);
  EXPECT_EQ(spec.options.max_filter_iter, ref.max_filter_iter);
  EXPECT_EQ(spec.priority, 0);
  EXPECT_EQ(spec.quota, 0);
}

TEST(SvcJob, ParseServiceKeys) {
  const svc::JobSpec spec = svc::parse_job(Config::parse(
      "PRIORITY: 3\nTHREADS: 2\n"
      "DYNAMIC_BLOCK: 0\nBLOCK_SIZE: 4\nN_OMEGA: 2\nSEED: 11\n"));
  EXPECT_EQ(spec.priority, 3);
  EXPECT_EQ(spec.quota, 2);
  EXPECT_FALSE(spec.options.stern.dynamic_block);
  EXPECT_EQ(spec.options.stern.fixed_block, 4);
  EXPECT_EQ(spec.options.ell, 2);
  EXPECT_EQ(spec.preset.seed, 11u);
}

TEST(SvcJob, ParseRejectsBadFaultMode) {
  EXPECT_THROW(svc::parse_job(Config::parse("FAULT_MODE: bogus\n")), Error);
}

TEST(SvcJob, ParseRejectsRemovedStencilKeys) {
  // The fused sweep with fixed tiles is the only apply schedule: a config
  // still carrying one of the retired knobs fails naming the key instead
  // of running with the setting silently ignored.
  for (const std::string key : {"FUSED_APPLY", "TILE_Y", "TILE_Z"}) {
    try {
      (void)svc::parse_job(Config::parse(key + ": 1\n"));
      ADD_FAILURE() << key << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(SvcJob, ParseRejectsRemovedSsaRefreshKey) {
  // A fallback's eigenvectors always refresh the frozen basis; a config
  // asking to keep it frozen fails naming the key, whatever its value.
  for (const std::string value : {"0", "1"}) {
    try {
      (void)svc::parse_job(Config::parse("SSA_FREEZE_AFTER: 2\n"
                                         "SSA_REFRESH: " + value + "\n"));
      ADD_FAILURE() << "SSA_REFRESH: " << value << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("SSA_REFRESH"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SvcJob, ParseRejectsRemovedLadderKeys) {
  // The recovery ladder's switches and its stagnation probe are gone: a
  // config still carrying one fails naming the key, whatever its value,
  // instead of running with the setting silently ignored.
  for (const std::string key : {"RESILIENCE", "MAX_RESTARTS",
                                "STAGNATION_WINDOW", "STAGNATION_FACTOR"}) {
    for (const std::string value : {"0", "1"}) {
      try {
        (void)svc::parse_job(Config::parse(key + ": " + value + "\n"));
        ADD_FAILURE() << key << ": " << value << " was accepted";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(key + " was removed"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(SvcJob, ParseRejectsOutOfRangeSizes) {
  // Parse only: a size below its minimum fails naming the key before any
  // cast to size_t, so no system is ever built from a wrapped value.
  struct Bound {
    const char* key;
    int min;
  };
  for (const Bound& k : {Bound{"N_CELLS", 1}, Bound{"GRID_PER_CELL", 1},
                         Bound{"N_EIG_PER_ATOM", 1}, Bound{"N_NUCHI_EIGS", 1},
                         Bound{"FD_RADIUS", 1}, Bound{"N_OMEGA", 1},
                         Bound{"ISDF_NIP", 0}, Bound{"ISDF_OVERSAMPLE", 0},
                         Bound{"CHEB_DEGREE_RPA", 1},
                         Bound{"MAXIT_FILTERING", 0}}) {
    for (const int value : {0, -1}) {
      const std::string line =
          std::string(k.key) + ": " + std::to_string(value) + "\n";
      if (value >= k.min) {
        EXPECT_NO_THROW((void)svc::parse_job(Config::parse(line))) << line;
        continue;
      }
      try {
        (void)svc::parse_job(Config::parse(line));
        ADD_FAILURE() << line << " was accepted";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(std::string(k.key) + " must be"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(SvcJob, ParseRejectsFaultTargetsPastTheRun) {
  // Parse only: one cell has 16 occupied orbitals, and N_OMEGA 3 has
  // points 0..2. A target past either would inject nothing.
  const std::string base = "N_CELLS: 1\nN_OMEGA: 3\n";
  struct Target {
    const char* key;
    int count;
  };
  for (const Target& t :
       {Target{"FAULT_ORBITAL", 16}, Target{"FAULT_OMEGA", 3}}) {
    for (const int value : {-1, 0, t.count - 1})
      EXPECT_NO_THROW((void)svc::parse_job(Config::parse(
          base + t.key + ": " + std::to_string(value) + "\n")))
          << t.key << "=" << value;
    for (const int value : {-2, t.count, t.count + 90}) {
      try {
        (void)svc::parse_job(Config::parse(
            base + t.key + ": " + std::to_string(value) + "\n"));
        ADD_FAILURE() << t.key << "=" << value << " was accepted";
      } catch (const Error& e) {
        const std::string want = std::string(t.key) + " must be -1 or in [0, " +
                                 std::to_string(t.count) + ")";
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
      }
    }
  }
}

// ---------------------------------------------------------------------
// Satellite 2: per-job task quotas on the shared pool

TEST(SvcQuota, CapsInFlightTasks) {
  // An explicit multi-lane pool: the container may expose a single core,
  // and this property is about task fan-out, not hardware.
  sched::ThreadPool pool(4);
  for (int quota : {1, 2}) {
    sched::TaskQuotaScope scope(quota);
    std::atomic<int> active{0};
    std::atomic<int> high_water{0};
    sched::parallel_for_range(
        0, 64, 1,
        [&](std::size_t b, std::size_t e) {
          const int now = ++active;
          int hw = high_water.load();
          while (now > hw && !high_water.compare_exchange_weak(hw, now)) {
          }
          // Hold the task open long enough for any over-forked sibling
          // to overlap; the quota must bound the overlap regardless.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          (void)b;
          (void)e;
          --active;
        },
        pool);
    EXPECT_LE(high_water.load(), quota) << "quota " << quota;
  }
}

TEST(SvcQuota, TaskGroupInheritsQuotaAcrossLanes) {
  sched::ThreadPool pool(4);
  sched::TaskQuotaScope scope(3);
  EXPECT_EQ(sched::current_task_quota(), 3);
  // The quota follows the work: tasks observe the submitting scope's
  // quota even when a pool worker (whose own tls is 0) executes them.
  std::atomic<int> seen{-1};
  sched::TaskGroup group(pool);
  for (int i = 0; i < 8; ++i)
    group.run([&] { seen = sched::current_task_quota(); });
  group.wait();
  EXPECT_EQ(seen.load(), 3);
}

TEST(SvcQuota, ScopeRestoresOnExit) {
  EXPECT_EQ(sched::current_task_quota(), 0);
  {
    sched::TaskQuotaScope outer(4);
    {
      sched::TaskQuotaScope inner(1);
      EXPECT_EQ(sched::current_task_quota(), 1);
    }
    EXPECT_EQ(sched::current_task_quota(), 4);
  }
  EXPECT_EQ(sched::current_task_quota(), 0);
}

TEST(SvcQuota, QuotaDoesNotChangeResults) {
  // The quota only enlarges the parallel_for grain — reductions keep
  // their fixed pairwise tree, so numbers are bitwise identical.
  const std::string cfg = tiny_rpa(7, 2);
  const rpa::RpaResult base = run_standalone(cfg);
  sched::TaskQuotaScope scope(1);
  const rpa::RpaResult capped = run_standalone(cfg);
  expect_bitwise_equal(base, capped);
}

// ---------------------------------------------------------------------
// Satellite 3: cooperative cancellation

TEST(SvcControl, CancelOutranksPreempt) {
  rpa::RunControl control;
  EXPECT_EQ(control.pending(), rpa::RunControl::kNone);
  control.request_preempt();
  EXPECT_EQ(control.pending(), rpa::RunControl::kPreempt);
  control.request_cancel();
  EXPECT_EQ(control.pending(), rpa::RunControl::kCancel);
  control.request_preempt();  // must not downgrade
  EXPECT_EQ(control.pending(), rpa::RunControl::kCancel);
  control.reset();
  EXPECT_EQ(control.pending(), rpa::RunControl::kNone);
}

TEST_F(SvcTest, CancelledRunResumesBitwise) {
  const std::string cfg = tiny_rpa(7, 3);
  const rpa::RpaResult expected = run_standalone(cfg);

  const svc::JobSpec spec = svc::parse_job(Config::parse(cfg));
  rpa::BuiltSystem sys = rpa::build_system(spec.preset);
  rpa::RpaOptions opts = spec.options;
  opts.checkpoint.path = path("cancel.ckpt");
  opts.checkpoint.resume = true;
  rpa::RunControl control;
  opts.control = &control;

  // Fire the cancel as soon as the first checkpoint lands. Depending on
  // timing the run either throws at a later boundary or completes — both
  // are legal; what matters is that a cancelled run resumes bitwise.
  std::thread canceller([&] {
    while (!fs::exists(opts.checkpoint.path))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    control.request_cancel();
  });
  bool cancelled = false;
  rpa::RpaResult res;
  try {
    res = rpa::compute_rpa_energy(sys.ks, *sys.klap, opts);
  } catch (const rpa::RunCancelled&) {
    cancelled = true;
  }
  canceller.join();
  if (cancelled) {
    control.reset();
    res = rpa::compute_rpa_energy(sys.ks, *sys.klap, opts);
  }
  expect_bitwise_equal(res, expected);
}

// Every METHOD polls the control at its first quadrature-point boundary
// (ISDF already before point selection), so a request pending before the
// run starts stops it with the matching exception.
class SvcControlMethod : public ::testing::TestWithParam<const char*> {};

TEST_P(SvcControlMethod, PendingRequestStopsTheRun) {
  const svc::JobSpec spec = svc::parse_job(
      Config::parse(tiny_rpa(7, 3) + "METHOD: " + GetParam() + "\n"));
  // One build for all four methods: METHOD does not enter the preset.
  static const rpa::BuiltSystem sys = rpa::build_system(spec.preset);
  for (const bool cancel : {true, false}) {
    SCOPED_TRACE(cancel ? "cancel" : "preempt");
    rpa::RunControl control;
    if (cancel)
      control.request_cancel();
    else
      control.request_preempt();
    rpa::RpaOptions opts = spec.options;
    opts.control = &control;
    if (cancel)
      EXPECT_THROW(svc::run_driver(spec, sys, opts, &control),
                   rpa::RunCancelled);
    else
      EXPECT_THROW(svc::run_driver(spec, sys, opts, &control),
                   rpa::RunPreempted);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, SvcControlMethod,
                         ::testing::Values("sternheimer", "direct", "isdf",
                                           "slq"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------
// Satellite 4: concurrent in-process tenants are bitwise independent

TEST_F(SvcTest, ConcurrentRunsMatchStandaloneBitwise) {
  const std::string cfg_a = tiny_rpa(7, 3);
  // A genuinely different tenant: different crystal seed AND the scalar
  // stencil rows, sharing the pool with A's SIMD-row run.
  const std::string cfg_b = tiny_rpa(11, 3) + "SIMD: 0\n";
  const rpa::RpaResult expected_a = run_standalone(cfg_a);
  const rpa::RpaResult expected_b = run_standalone(cfg_b);

  rpa::RpaResult got_a, got_b;
  std::exception_ptr err_a, err_b;
  std::thread ta([&] {
    try {
      const svc::JobSpec spec = svc::parse_job(Config::parse(cfg_a));
      rpa::BuiltSystem sys = rpa::build_system(spec.preset);
      rpa::RpaOptions opts = spec.options;
      opts.checkpoint.path = path("tenant_a.ckpt");  // one tenant checkpoints
      got_a = rpa::compute_rpa_energy(sys.ks, *sys.klap, opts);
    } catch (...) {
      err_a = std::current_exception();
    }
  });
  std::thread tb([&] {
    try {
      const svc::JobSpec spec = svc::parse_job(Config::parse(cfg_b));
      rpa::BuiltSystem sys = rpa::build_system(spec.preset);
      sched::TaskQuotaScope quota(2);  // and runs under a quota
      got_b = rpa::compute_rpa_energy(sys.ks, *sys.klap, spec.options);
    } catch (...) {
      err_b = std::current_exception();
    }
  });
  ta.join();
  tb.join();
  if (err_a) std::rethrow_exception(err_a);
  if (err_b) std::rethrow_exception(err_b);
  expect_bitwise_equal(got_a, expected_a);
  expect_bitwise_equal(got_b, expected_b);
}

// ---------------------------------------------------------------------
// The service itself

TEST_F(SvcTest, RunsJobsAndWritesReports) {
  const std::string cfg_a = tiny_rpa(7, 2);
  const std::string cfg_b = tiny_rpa(11, 2);
  const rpa::RpaResult expected_a = run_standalone(cfg_a);
  const rpa::RpaResult expected_b = run_standalone(cfg_b);

  svc::ServiceOptions sopts;
  sopts.root = root();
  sopts.slots = 2;
  sopts.poll_ms = 5;
  svc::JobService service(sopts);
  const std::string id_a = service.submit("a", cfg_a);
  const std::string id_b = service.submit("b", cfg_b);
  service.wait_idle();

  const svc::JobStatus st_a = service.status(id_a);
  const svc::JobStatus st_b = service.status(id_b);
  EXPECT_EQ(st_a.state, svc::JobState::kDone);
  EXPECT_EQ(st_b.state, svc::JobState::kDone);
  EXPECT_EQ(st_a.e_rpa, expected_a.e_rpa);
  EXPECT_EQ(st_b.e_rpa, expected_b.e_rpa);

  // The result endpoint: report.json carries the same structured run
  // report a standalone run would produce.
  const obs::Json rep = obs::read_json_file(service.spool().report_file(id_a));
  EXPECT_EQ(rep.at("schema").as_string(), obs::kRunReportSchema);
  EXPECT_EQ(strip_timing(rep.at("rpa")).dump(),
            strip_timing(obs::to_json(expected_a)).dump());

  // status.json round-trips and agrees with the live view.
  const svc::JobStatus disk = service.spool().read_status(id_a);
  EXPECT_EQ(disk.state, svc::JobState::kDone);
  EXPECT_EQ(disk.e_rpa, expected_a.e_rpa);
  service.shutdown();
}

TEST_F(SvcTest, InboxSubmissionRuns) {
  svc::ServiceOptions sopts;
  sopts.root = root();
  sopts.slots = 1;
  sopts.poll_ms = 5;
  svc::JobService service(sopts);
  // Write-elsewhere-then-rename: the submission convention.
  const std::string staged = path("inbox_job.rpa");
  {
    std::ofstream f(staged);
    f << tiny_rpa(7, 2);
  }
  fs::rename(staged, service.spool().inbox_dir() + "/inbox_job.rpa");
  const auto t0 = std::chrono::steady_clock::now();
  while (true) {
    const std::vector<std::string> ids = service.job_ids();
    if (!ids.empty()) break;
    ASSERT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0).count(), 60.0)
        << "inbox file never ingested";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  service.wait_idle();
  const svc::JobStatus st = service.status("inbox_job");
  EXPECT_EQ(st.state, svc::JobState::kDone);
  EXPECT_TRUE(fs::exists(service.spool().report_file("inbox_job")));
  service.shutdown();
}

TEST_F(SvcTest, MalformedJobFailsCleanly) {
  svc::ServiceOptions sopts;
  sopts.root = root();
  sopts.poll_ms = 5;
  svc::JobService service(sopts);
  const std::string id = service.submit("bad", "FAULT_MODE: bogus\n");
  service.wait_idle();
  const svc::JobStatus st = service.status(id);
  EXPECT_EQ(st.state, svc::JobState::kFailed);
  EXPECT_FALSE(st.error.empty());
  service.shutdown();
}

TEST_F(SvcTest, HigherPriorityPreemptsAndBothMatchStandalone) {
  const std::string cfg_low = tiny_rpa(7, 6, /*priority=*/0);
  const std::string cfg_high = tiny_rpa(11, 2, /*priority=*/5);
  const rpa::RpaResult expected_low = run_standalone(cfg_low);
  const rpa::RpaResult expected_high = run_standalone(cfg_high);

  svc::ServiceOptions sopts;
  sopts.root = root();
  sopts.slots = 1;  // the high-priority job can only run by preempting
  sopts.poll_ms = 5;
  svc::JobService service(sopts);
  const std::string id_low = service.submit("low", cfg_low);
  ASSERT_EQ(wait_state(service, id_low, svc::JobState::kRunning).state,
            svc::JobState::kRunning);
  // Let the victim checkpoint at least one quadrature point first, so
  // the preemption provably suspends mid-run and the restart is a
  // checkpoint resume (resumes >= 1), not a fresh start.
  const auto t0 = std::chrono::steady_clock::now();
  while (!fs::exists(service.spool().checkpoint_file(id_low))) {
    ASSERT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0).count(), 120.0)
        << "low-priority job never checkpointed";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string id_high = service.submit("high", cfg_high);
  service.wait_idle();

  const svc::JobStatus st_low = service.status(id_low);
  const svc::JobStatus st_high = service.status(id_high);
  EXPECT_EQ(st_low.state, svc::JobState::kDone);
  EXPECT_EQ(st_high.state, svc::JobState::kDone);
  EXPECT_GE(st_low.preemptions, 1);
  EXPECT_GE(st_low.resumes, 1);
  EXPECT_GE(service.preemption_count(), 1);
  EXPECT_EQ(st_low.e_rpa, expected_low.e_rpa);
  EXPECT_EQ(st_high.e_rpa, expected_high.e_rpa);

  // Preempted-and-resumed must still match the uninterrupted report.
  const obs::Json rep =
      obs::read_json_file(service.spool().report_file(id_low));
  EXPECT_EQ(strip_timing(rep.at("rpa")).dump(),
            strip_timing(obs::to_json(expected_low)).dump());
  service.shutdown();
}

TEST_F(SvcTest, CancelQueuedAndRunningJobs) {
  svc::ServiceOptions sopts;
  sopts.root = root();
  sopts.slots = 1;
  sopts.poll_ms = 5;
  svc::JobService service(sopts);
  const std::string id_run = service.submit("runner", tiny_rpa(7, 6));
  ASSERT_EQ(wait_state(service, id_run, svc::JobState::kRunning).state,
            svc::JobState::kRunning);
  const std::string id_q1 = service.submit("queued1", tiny_rpa(11, 3));
  const std::string id_q2 = service.submit("queued2", tiny_rpa(13, 3));

  service.cancel(id_q1);  // API path
  {                       // marker-file path (what external tooling uses)
    std::ofstream f(service.spool().cancel_file(id_q2));
  }
  service.cancel(id_run);  // cooperative: lands at the next boundary
  service.wait_idle();

  EXPECT_EQ(service.status(id_q1).state, svc::JobState::kCancelled);
  EXPECT_EQ(service.status(id_q2).state, svc::JobState::kCancelled);
  const svc::JobState runner_state = service.status(id_run).state;
  // Either the cancel landed at a boundary or the run beat it to the
  // finish — both are within the cooperative contract.
  EXPECT_TRUE(runner_state == svc::JobState::kCancelled ||
              runner_state == svc::JobState::kDone);
  EXPECT_FALSE(fs::exists(service.spool().report_file(id_q1)));
  service.shutdown();
}

TEST_F(SvcTest, DaemonRestartResumesPreemptedJobs) {
  const std::string cfg = tiny_rpa(7, 5);
  const rpa::RpaResult expected = run_standalone(cfg);

  svc::ServiceOptions sopts;
  sopts.root = root();
  sopts.slots = 1;
  sopts.poll_ms = 5;
  std::string id;
  {
    svc::JobService service(sopts);
    id = service.submit("restartme", cfg);
    // Let it make real progress before the "crash": at least one
    // checkpointed quadrature point.
    const auto t0 = std::chrono::steady_clock::now();
    while (!fs::exists(service.spool().checkpoint_file(id))) {
      ASSERT_LT(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0).count(), 120.0)
          << "no checkpoint appeared";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    service.shutdown(/*preempt_running=*/true);
    const svc::JobState s = service.status(id).state;
    EXPECT_TRUE(s == svc::JobState::kPreempted || s == svc::JobState::kDone);
  }
  // New daemon, same spool: the preempted job is re-queued and resumed
  // from its checkpoint.
  svc::JobService service2(sopts);
  service2.wait_idle();
  const svc::JobStatus st = service2.status(id);
  EXPECT_EQ(st.state, svc::JobState::kDone);
  EXPECT_EQ(st.e_rpa, expected.e_rpa);
  const obs::Json rep = obs::read_json_file(service2.spool().report_file(id));
  EXPECT_EQ(strip_timing(rep.at("rpa")).dump(),
            strip_timing(obs::to_json(expected)).dump());
  service2.shutdown();
}

// ---------------------------------------------------------------------
// The acceptance soak: >= 24 concurrent heterogeneous jobs — mixed
// sizes, priorities and quotas, one fault-injected, one guaranteed
// preempted-and-resumed — every E_RPA bitwise equal to standalone.

TEST_F(SvcTest, SoakMixedTenantsAllBitwise) {
  // Distinct configs (standalone oracle computed once per distinct text).
  const std::string big_low = tiny_rpa(7, 6, /*priority=*/0, /*quota=*/0);
  std::vector<std::string> small;
  small.push_back(tiny_rpa(11, 2, 1, 0));
  small.push_back(tiny_rpa(13, 2, 2, 2));
  small.push_back(tiny_rpa(17, 3, 3, 4));
  small.push_back(tiny_rpa(19, 2, 4, 0) + "SIMD: 0\n");
  small.push_back(tiny_rpa(23, 3, 2, 2));
  const std::string faulty = tiny_rpa(29, 2, 3, 0) + fault_keys();

  std::vector<std::string> texts;
  texts.push_back(big_low);
  texts.push_back(faulty);
  for (int i = 0; i < 22; ++i) texts.push_back(small[i % small.size()]);
  ASSERT_GE(texts.size(), 24u);

  // Standalone oracles, one per distinct config.
  std::map<std::string, rpa::RpaResult> oracle;
  for (const std::string& t : texts)
    if (!oracle.count(t)) oracle.emplace(t, run_standalone(t));

  svc::ServiceOptions sopts;
  sopts.root = root();
  sopts.slots = 3;
  sopts.poll_ms = 5;
  svc::JobService service(sopts);

  // The designated victim goes first and must be running before the
  // higher-priority burst arrives, so at least one preemption is
  // guaranteed (slots full + strictly higher priority waiting).
  std::vector<std::pair<std::string, const std::string*>> jobs;
  const std::string id_big = service.submit("job00", big_low);
  jobs.emplace_back(id_big, &texts[0]);
  ASSERT_EQ(wait_state(service, id_big, svc::JobState::kRunning).state,
            svc::JobState::kRunning);
  for (std::size_t i = 1; i < texts.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "job%02u", static_cast<unsigned>(i));
    jobs.emplace_back(service.submit(name, texts[i]), &texts[i]);
  }
  service.wait_idle();

  int done = 0;
  for (const auto& [id, text] : jobs) {
    const svc::JobStatus st = service.status(id);
    EXPECT_EQ(st.state, svc::JobState::kDone) << id << ": " << st.error;
    if (st.state != svc::JobState::kDone) continue;
    ++done;
    const rpa::RpaResult& expected = oracle.at(*text);
    EXPECT_EQ(st.e_rpa, expected.e_rpa) << id;
    const obs::Json rep = obs::read_json_file(service.spool().report_file(id));
    EXPECT_EQ(strip_timing(rep.at("rpa")).dump(),
              strip_timing(obs::to_json(expected)).dump())
        << id;
  }
  EXPECT_EQ(done, static_cast<int>(jobs.size()));
  EXPECT_GE(service.preemption_count(), 1);
  EXPECT_GE(service.status(id_big).preemptions, 1);

  // The fault-injected tenant survived degraded — and still bitwise.
  const svc::JobStatus st_fault = service.status(jobs[1].first);
  EXPECT_TRUE(st_fault.degraded);
  EXPECT_TRUE(oracle.at(faulty).degraded);
  service.shutdown();
}

}  // namespace
}  // namespace rsrpa
