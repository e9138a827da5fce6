// E4 / Table IV: dynamic block size frequencies across system sizes.
//
// Expected shape (paper Table IV): small block sizes dominate; the
// fraction of s = 1 chunks grows with system size (more orbitals means a
// larger share of easy (j,k) pairs); occasional larger sizes appear for
// the hard systems.
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "rpa/presets.hpp"
#include "sched/thread_pool.hpp"
#include "support/kernel_breakdown.hpp"

int main() {
  using namespace rsrpa;
  bench::JsonReport report("table4_blocksize_freq", "Table IV",
                           "block size 1-2 chunks dominate; s=1 share grows "
                           "with system size; rare large blocks");

  const std::size_t max_cells = bench::full_scale() ? 3 : 2;
  std::vector<std::map<int, int>> histograms;
  std::vector<std::string> names;
  std::vector<double> s1_fraction;
  obs::Json systems = obs::Json::array();

  for (std::size_t ncells = 1; ncells <= max_cells; ++ncells) {
    rpa::SystemPreset preset = rpa::make_si_preset(ncells, false);
    preset.grid_per_cell = 9;
    preset.n_eig_per_atom = 6;
    preset.fd_radius = 4;
    rpa::BuiltSystem sys = rpa::build_system(preset);

    // Emulate the paper's per-processor view: partition columns over a few
    // ranks so the n_eig/p block cap is active, as on the cluster.
    const sched::PoolStats pool0 = sched::global_pool().stats();
    const par::RankedRun run =
        par::run_ranked(sys.ks, *sys.klap, sys.default_rpa_options(), 4);
    const rpa::RpaResult& res = run.result;

    names.push_back(preset.name);
    histograms.push_back(res.stern.block_size_chunks);
    long total = 0, s1 = 0;
    for (const auto& [size, count] : histograms.back()) {
      total += count;
      if (size == 1) s1 = count;
    }
    s1_fraction.push_back(static_cast<double>(s1) /
                          static_cast<double>(total));
    std::printf("%s done (%.1f s, converged %s)\n", preset.name.c_str(),
                res.total_seconds, res.converged ? "yes" : "NO");

    obs::Json sysrec = obs::Json::object();
    sysrec["system"] = obs::Json(preset.name);
    sysrec["s1_fraction"] = obs::Json(s1_fraction.back());
    sysrec["result"] = par::scaling_report(
        run, par::CollectiveModel{}, sched::global_pool().stats().since(pool0));
    systems.push_back(std::move(sysrec));
  }

  std::printf("\nBlock size chunk counts (summed over ranks and solves):\n");
  std::printf("%-10s", "size");
  for (const auto& n : names) std::printf(" %10s", n.c_str());
  std::printf("\n");
  for (int size : {1, 2, 4, 8, 16}) {
    std::printf("%-10d", size);
    for (const auto& h : histograms) {
      auto it = h.find(size);
      std::printf(" %10d", it == h.end() ? 0 : it->second);
    }
    std::printf("\n");
  }

  std::printf("\ns=1 fraction by system:");
  for (double f : s1_fraction) std::printf(" %.2f", f);
  std::printf("\n");

  bool small_dominate = true;
  for (const auto& h : histograms) {
    long small = 0, total = 0;
    for (const auto& [size, count] : h) {
      total += count;
      if (size <= 2) small += count;
    }
    small_dominate = small_dominate && small > 0.7 * total;
  }
  const bool s1_grows = s1_fraction.back() >= s1_fraction.front() - 0.05;
  std::printf("\nChecks:\n");
  report.data()["systems"] = std::move(systems);
  report.add_check("sizes 1-2 dominate every system", small_dominate);
  report.add_check("s=1 share non-decreasing with system size", s1_grows);
  return report.finish();
}
