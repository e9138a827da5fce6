// a7_svc_soak — multi-tenant job-service soak (beyond-paper artifact A7).
//
// Throws dozens of concurrent heterogeneous jobs — mixed sizes,
// priorities and per-job quotas, one fault-injected, one designed to be
// preempted and resumed — at a JobService and checks the service
// delivered every result bitwise identical to the same config run
// standalone. Reports throughput (jobs/min), queue-latency percentiles
// and the preemption count to bench_out/a7_svc_soak.json.
//
// Bench scale: 24 jobs on the test fixture; RSRPA_FULL=1 doubles the
// fleet and grows the big tenant.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "svc/service.hpp"

namespace {

using namespace rsrpa;

std::string tiny_rpa(std::uint64_t seed, int n_omega, int priority,
                     int quota, const std::string& extra = "") {
  std::string s;
  s += "GRID_PER_CELL: 7\n";
  s += "FD_RADIUS: 3\n";
  s += "N_NUCHI_EIGS: 16\n";
  s += "N_EIG_PER_ATOM: 2\n";
  s += "N_OMEGA: " + std::to_string(n_omega) + "\n";
  s += "TOL_EIG: 4e-3 2e-3 2e-3\n";
  // Bitwise-reproducibility configuration: Algorithm 4 keys off wall
  // clock, which the standalone-equality check must exclude.
  s += "DYNAMIC_BLOCK: 0\n";
  s += "BLOCK_SIZE: 4\n";
  s += "SEED: " + std::to_string(seed) + "\n";
  s += "PRIORITY: " + std::to_string(priority) + "\n";
  s += "THREADS: " + std::to_string(quota) + "\n";
  s += extra;
  return s;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

rpa::RpaResult run_standalone(const std::string& text) {
  const svc::JobSpec spec = svc::parse_job(Config::parse(text));
  rpa::BuiltSystem sys = rpa::build_system(spec.preset);
  return rpa::compute_rpa_energy(sys.ks, *sys.klap, spec.options);
}

}  // namespace

int main() {
  bench::JsonReport report(
      "a7_svc_soak", "beyond-paper artifact A7 (job service)",
      "a multi-tenant server returns every E_RPA bitwise equal to the "
      "standalone run, under preemption, quotas and fault injection");

  const int n_jobs = bench::full_scale() ? 48 : 24;
  const int big_omegas = bench::full_scale() ? 8 : 6;

  // Heterogeneous fleet: one big low-priority tenant (the designated
  // preemption victim), one fault-injected tenant (the PR 3 zero-matvec
  // drill — survives degraded), and a rotation of small tenants across
  // priorities, quotas and apply paths.
  const std::string big_low = tiny_rpa(7, big_omegas, 0, 0);
  const std::string faulty =
      tiny_rpa(29, 2, 3, 0) +
      "FAULT_MODE: zero\nFAULT_AT_APPLY: 0\nFAULT_PERIOD: 1\n"
      "FAULT_MAX: 1073741824\nFAULT_ORBITAL: 0\nFAULT_OMEGA: 0\n";
  const std::vector<std::string> small = {
      tiny_rpa(11, 2, 1, 0),
      tiny_rpa(13, 2, 2, 2),
      tiny_rpa(17, 3, 3, 4),
      tiny_rpa(19, 2, 4, 0) + "SIMD: 0\n",
      tiny_rpa(23, 3, 2, 2),
  };
  std::vector<std::string> texts;
  texts.push_back(big_low);
  texts.push_back(faulty);
  for (int i = 0; static_cast<int>(texts.size()) < n_jobs; ++i)
    texts.push_back(small[static_cast<std::size_t>(i) % small.size()]);

  std::printf("computing standalone oracles (%d jobs, %zu distinct "
              "configs)...\n",
              n_jobs, [&] {
                std::map<std::string, int> d;
                for (const auto& t : texts) d[t] = 1;
                return d.size();
              }());
  std::map<std::string, rpa::RpaResult> oracle;
  for (const std::string& t : texts)
    if (!oracle.count(t)) oracle.emplace(t, run_standalone(t));

  svc::ServiceOptions sopts;
  sopts.root = "svc_soak_spool";
  sopts.slots = 3;
  sopts.poll_ms = 5;
  std::filesystem::remove_all(sopts.root);  // stale state from a prior run

  WallTimer wall;
  svc::JobService service(sopts);
  std::vector<std::pair<std::string, const std::string*>> jobs;
  jobs.emplace_back(service.submit("job00", texts[0]), &texts[0]);
  // Make sure the victim holds a slot before the higher-priority burst.
  while (service.status(jobs[0].first).state == svc::JobState::kQueued)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (std::size_t i = 1; i < texts.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "job%02u", static_cast<unsigned>(i));
    jobs.emplace_back(service.submit(name, texts[i]), &texts[i]);
  }
  service.wait_idle();
  const double soak_seconds = wall.seconds();

  int done = 0;
  int bitwise = 0;
  std::vector<double> queue_lat;
  for (const auto& [id, text] : jobs) {
    const svc::JobStatus st = service.status(id);
    if (st.state == svc::JobState::kDone) {
      ++done;
      if (st.e_rpa == oracle.at(*text).e_rpa) ++bitwise;
    }
    queue_lat.push_back(st.queue_seconds);
  }
  const int preemptions = service.preemption_count();
  const svc::JobStatus st_fault = service.status(jobs[1].first);
  service.shutdown();

  const double jobs_per_min =
      soak_seconds > 0.0 ? 60.0 * static_cast<double>(done) / soak_seconds
                         : 0.0;
  const double p50 = percentile(queue_lat, 0.50);
  const double p95 = percentile(queue_lat, 0.95);

  std::printf("\n%-28s %d\n", "jobs submitted", n_jobs);
  std::printf("%-28s %d\n", "jobs done", done);
  std::printf("%-28s %.2f\n", "jobs/min", jobs_per_min);
  std::printf("%-28s %.3f s\n", "queue latency p50", p50);
  std::printf("%-28s %.3f s\n", "queue latency p95", p95);
  std::printf("%-28s %d\n\n", "preemptions", preemptions);

  report.data()["jobs"] = n_jobs;
  report.data()["done"] = done;
  report.data()["jobs_per_min"] = jobs_per_min;
  report.data()["queue_p50_seconds"] = p50;
  report.data()["queue_p95_seconds"] = p95;
  report.data()["preemptions"] = preemptions;
  report.data()["soak_seconds"] = soak_seconds;

  report.add_check("all jobs completed", done == n_jobs);
  report.add_check("every E_RPA bitwise equals standalone",
                   bitwise == done && done > 0);
  report.add_check("at least one preemption served", preemptions >= 1);
  report.add_check("big tenant was preempted and recovered",
                   service.status(jobs[0].first).preemptions >= 1 &&
                       service.status(jobs[0].first).state ==
                           svc::JobState::kDone);
  report.add_check("fault-injected tenant survived degraded",
                   st_fault.state == svc::JobState::kDone &&
                       st_fault.degraded);
  return report.finish();
}
