// rpabench — time to a checked E_RPA on the shipped Si8 system.
//
//   rpabench --workload si8_stern --seed 7 --seconds 20 --trace 0
//            --input examples/inputs/Si8.rpa --work-dir <dir> [--tiny]
//
// Runs one workload (README.md) for about --seconds of measurement and
// prints one JSON object of raw samples on stdout; perfbench/run.py reduces
// it to the benchmark's metrics. Every sample is one E_RPA job (on
// si8_mixed_backends, the mixed-precision Sternheimer job and then the
// direct, isdf and slq jobs) on the shipped crystal with
// the driver RNG streams of --seed, timed from the svc::run_driver call to
// its return, and checked against the seed's reference energy. Set-up
// (rpa::build_system) is timed apart, several times per run.
//
// With --trace 1, samples alternate untraced / traced: the traced ones turn
// on the layer shims (layer_trace.hpp) and carry a per-layer record, the
// untraced ones give the baseline for the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/timer.hpp"
#include "layer_trace.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "rpa/nu_chi0.hpp"
#include "sched/sched.hpp"
#include "svc/driver.hpp"
#include "svc/job.hpp"

namespace {

using namespace rsrpa;
using perfbench::Layer;
using KeyValues = std::vector<std::pair<std::string, std::string>>;

/// The shipped Si8.rpa crystal seed. Every job runs this crystal; a
/// workload seed equal to it also keeps the driver RNG seeds at their
/// defaults, so it runs the shipped input exactly and is checked against
/// the pinned energies below.
constexpr std::uint64_t kShippedSeed = 7;
/// Tolerance of every energy check (the mixed-precision contract).
constexpr double kEnergyTol = 1e-4;
/// build_system calls per run; set-up is timed by their median.
constexpr std::size_t kSetupBuilds = 15;
/// Samples per run at most, whatever their length.
constexpr std::size_t kMaxSamples = 1000;

/// Applied to Si8.rpa for every workload: a coarser grid, fewer
/// frequency points, eigenvalues and SLQ probes, and looser subspace
/// tolerances, so one job takes about ten seconds instead of a minute or
/// more (README.md). Nine points per axis is the smallest grid on which the
/// radius-4 stencil has an interior, so its SIMD row kernels run as they do
/// on the shipped 11-point grid.
const KeyValues kBenchScale = {{"GRID_PER_CELL", "9"},
                               {"N_OMEGA", "6"},
                               {"N_NUCHI_EIGS", "16"},
                               {"SLQ_PROBES", "8"},
                               {"TOL_EIG", "5e-3 3e-3 2e-3"}};
/// --tiny additionally shrinks the grid, the frequency grid and the SLQ
/// probe set (the self-test input).
const KeyValues kTiny = {
    {"GRID_PER_CELL", "7"}, {"N_OMEGA", "3"}, {"SLQ_PROBES", "4"}};

/// One job of a sample.
struct Job {
  std::string method;            ///< its METHOD
  KeyValues diff;                ///< keys set for this job alone
  bool halt_and_resume = false;  ///< checkpoint, halt, resume in-process
};

struct Workload {
  std::string name;
  int threads = 1;
  KeyValues diff;         ///< keys set on top of the bench scale, set-up too
  std::vector<Job> jobs;  ///< run in order on one built system
};

std::vector<Workload> workloads(bool tiny) {
  const std::string freeze = tiny ? "1" : "4";
  return {
      {"si8_stern", 1, {}, {{"sternheimer", {}, false}}},
      {"si8_mixed_backends",
       4,
       {{"PRECISION", "mixed"}},
       {{"sternheimer",
         {{"SSA_FREEZE_AFTER", freeze}, {"SSA_RESIDUAL_TOL", "1.5e-3"}},
         true},
        {"direct", {}, false},
        {"isdf", {}, false},
        {"slq", {}, false}}},
  };
}

/// E_RPA per atom (Ha) of the shipped crystal at bench scale, by method:
/// Sternheimer from an fp64 run of the unmodified library, direct, isdf
/// and slq from their si8_mixed_backends jobs (whose ground state is built
/// with PRECISION mixed). The mixed-precision Sternheimer job is checked
/// against the fp64 Sternheimer energy (the mixed-precision and elision
/// contracts are both "within 1e-4 Ha/atom of fp64").
std::optional<double> pinned_energy(const std::string& method) {
  static const std::map<std::string, double> pins = {
      {"sternheimer", -7.78906e-02},
      {"direct", -2.07228e-01},
      {"isdf", -7.95980e-02},
      {"slq", -2.12215e-01},
  };
  const auto it = pins.find(method);
  if (it == pins.end()) return std::nullopt;
  return it->second;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw Error("cannot read " + path);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

/// A JobSpec of the shipped crystal for workload seed n: the driver RNG
/// seeds (subspace start, SLQ probes, ISDF sketch) are shifted by n - 7, so
/// n = 7 is the shipped input. The crystal stays the shipped one: other
/// crystals change a Sternheimer job's work by up to 12% (23 to 26 filter
/// iterations), which a run-to-run comparison would read as speed.
svc::JobSpec make_spec(const std::string& base_text, const KeyValues& diff,
                       std::uint64_t seed, const std::string& method) {
  Config cfg = Config::parse(base_text);
  for (const auto& [k, v] : diff) cfg.set(k, v);
  cfg.set("METHOD", method);
  svc::JobSpec spec = svc::parse_job(cfg);
  spec.preset.seed = kShippedSeed;
  const std::uint64_t shift = seed - kShippedSeed;
  spec.options.seed += shift;
  spec.slq.seed += shift;
  spec.isdf.seed += shift;
  return spec;
}

double seconds_of(const obs::Json& timers, const char* name) {
  const obs::Json* v = timers.find(name);
  return v != nullptr ? v->as_double() : 0.0;
}

/// One sample's outcome.
struct JobOutcome {
  double seconds = 0.0;
  bool ok = true;
  std::string reason;
  std::map<std::string, double> energies;  ///< E_RPA/atom by method
};

/// Per-layer record of a traced sample: metric name -> value, summed over
/// the sample's jobs, plus the names whose sum is the top-level time.
struct LayerRecord {
  std::map<std::string, double> values;
  std::vector<std::string> top_level;

  void add(const std::string& name, double v) { values[name] += v; }
  void top(const std::string& name, double v) {
    add(name, v);
    if (std::find(top_level.begin(), top_level.end(), name) ==
        top_level.end())
      top_level.push_back(name);
  }
};

/// Per-column seconds of the stencil and nonlocal passes, measured by
/// calling their public block applies on the workload's Hamiltonian: both
/// run inlined inside the fused shifted apply, where no shim can see them.
/// The stencil is timed as the run uses it (FP64 and FP32) and once more
/// on a copy with the SIMD kernels switched off, so the SIMD gain shows.
std::map<std::string, double> calibrate_kernels(const rpa::BuiltSystem& sys) {
  const ham::Hamiltonian& h = *sys.h;
  const std::size_t n = h.grid().size(), cols = 4;
  la::Matrix<la::cplx> in(n, cols), out(n, cols);
  la::Matrix<la::cplxf> in32(n, cols), out32(n, cols);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      in(i, j) = la::cplx(std::sin(0.37 * static_cast<double>(i + 3 * j)),
                          std::cos(0.11 * static_cast<double>(i)));
      in32(i, j) = la::cplxf(in(i, j));
    }
  grid::StencilLaplacian scalar = h.laplacian();
  scalar.set_simd(false);
  // One warm-up call, then the fastest of three timed rounds.
  auto per_column = [&](auto&& apply) {
    apply();
    double best = 0.0;
    for (int round = 0; round < 3; ++round) {
      long reps = 0;
      WallTimer t;
      while (reps < 5 || t.seconds() < 0.05) {
        apply();
        ++reps;
      }
      const double s =
          t.seconds() / static_cast<double>(reps * static_cast<long>(cols));
      best = round == 0 ? s : std::min(best, s);
    }
    return best;
  };
  return {
      {"hamiltonian.stencil_s_per_column",
       per_column([&] { h.laplacian().apply_block(in, out); })},
      {"hamiltonian.stencil_f32_s_per_column",
       per_column([&] { h.laplacian().apply_block(in32, out32); })},
      {"hamiltonian.stencil_scalar_s_per_column",
       per_column([&] { scalar.apply_block(in, out); })},
      {"hamiltonian.nonlocal_s_per_column",
       per_column([&] { h.nonlocal().apply_add_block(in, out); })},
  };
}

/// Trace-derived layer metrics of one job (one method).
void record_trace(const perfbench::TraceSnapshot& s, const std::string& method,
                  LayerRecord& rec) {
  const perfbench::LayerTotals& ham = s.at(Layer::kHamApply);
  const perfbench::LayerTotals& ham32 = s.at(Layer::kHamApplyF32);
  const perfbench::LayerTotals& solve = s.at(Layer::kSolve);
  const perfbench::LayerTotals& solve_op = s.at(Layer::kSolveOp);
  rec.add("solver.seconds", solve.seconds);
  rec.add("solver.self_s", solve.seconds - solve_op.seconds);
  rec.add("solver.matvec_columns", static_cast<double>(s.solver.matvec_columns));
  rec.add("solver.matvec_columns_f32",
          static_cast<double>(s.solver.matvec_columns_f32));
  rec.add("solver.chunks", static_cast<double>(s.solver.chunks));
  rec.add("solver.block1_chunks", static_cast<double>(s.solver.block1_chunks));
  rec.add("solver.retries", static_cast<double>(s.solver.retries));
  rec.add("solver.quarantined_columns",
          static_cast<double>(s.solver.quarantined));
  rec.add("hamiltonian.apply_s", ham.seconds);
  rec.add("hamiltonian.apply_columns", static_cast<double>(ham.columns));
  rec.add("hamiltonian.apply_f32_s", ham32.seconds);
  rec.add("hamiltonian.apply_f32_columns", static_cast<double>(ham32.columns));
  rec.add("hamiltonian.bytes_modeled", s.solver.bytes_modeled);
  rec.add("hamiltonian.flops_modeled", s.solver.flops_modeled);
  rec.add("poisson.nu_sqrt_s", s.at(Layer::kNuSqrt).seconds);
  rec.add("poisson.nu_sqrt_columns",
          static_cast<double>(s.at(Layer::kNuSqrt).columns));
  rec.add("rpa.chi0_apply_s", s.at(Layer::kChi0Apply).seconds);
  rec.add("rpa.ssa.project_s", s.at(Layer::kSsaProject).seconds);
  rec.add("io.checkpoint_bytes", s.checkpoint_bytes);
  const double save = s.at(Layer::kCheckpointSave).seconds;
  const double load = s.at(Layer::kCheckpointLoad).seconds;
  if (method == "sternheimer" || method == "slq") {
    rec.top("io.checkpoint_save_s", save);
    rec.top("io.checkpoint_load_s", load);
  }
  if (method == "direct") {
    rec.top("direct.diagonalization_s", s.at(Layer::kFullDiag).seconds);
    rec.top("direct.point_s", s.at(Layer::kDirectPoint).seconds);
  }
  if (method == "slq")
    rec.top("slq.nu_chi0_apply_s", s.at(Layer::kNuChi0Apply).seconds);
}

/// Driver-counter layer metrics of one job (one method).
void record_result(const svc::DriverRun& run, const rpa::RpaOptions& opts,
                   LayerRecord& rec) {
  if (run.has_rpa) {
    const rpa::RpaResult& r = run.rpa;
    rec.top("rpa.nu_chi0_apply_s", r.timers.get(rpa::kernels::kNuChi0));
    rec.top("rpa.eval_error_s", r.timers.get(rpa::kernels::kEvalError));
    rec.top("rpa.matmult_s", r.timers.get(rpa::kernels::kMatmult));
    rec.top("rpa.eigensolve_s", r.timers.get(rpa::kernels::kEigensolve));
    double point_max = 0.0, elided_s = 0.0;
    long filters = 0, elided = 0, fallbacks = 0, candidates = 0;
    for (std::size_t k = 0; k < r.per_omega.size(); ++k) {
      const rpa::OmegaRecord& o = r.per_omega[k];
      filters += o.filter_iterations;
      point_max = std::max(point_max, o.seconds);
      if (rpa::ssa_frozen(opts.ssa, static_cast<int>(k))) ++candidates;
      if (o.elided) {
        ++elided;
        elided_s += o.seconds;
      }
      if (o.fallback) ++fallbacks;
    }
    rec.add("rpa.filter_iterations", static_cast<double>(filters));
    rec.values["rpa.point_s.max"] =
        std::max(rec.values["rpa.point_s.max"], point_max);
    rec.add("rpa.ssa.elided_points", static_cast<double>(elided));
    rec.add("rpa.ssa.fallbacks", static_cast<double>(fallbacks));
    rec.add("rpa.ssa.elided_s", elided_s);
    rec.add("rpa.ssa.candidates", static_cast<double>(candidates));
    return;
  }
  const obs::Json& rep = run.report;
  switch (run.method) {
    case svc::Method::kIsdf: {
      const obs::Json& t = rep.at("timers");
      rec.top("isdf.diagonalization_s", seconds_of(t, "diagonalization"));
      rec.top("isdf.select_s", seconds_of(t, "isdf_select"));
      rec.top("isdf.fit_s", seconds_of(t, "isdf_fit"));
      rec.top("isdf.assemble_s", seconds_of(t, "isdf_assemble"));
      rec.top("isdf.eigensolve_s", seconds_of(t, "eigensolve"));
      rec.add("isdf.nip", rep.at("nip").as_double());
      break;
    }
    case svc::Method::kSlq: {
      rec.add("slq.matvec_columns", rep.at("matvec_columns").as_double());
      double probes = 0.0;
      for (const obs::Json& o : rep.at("per_omega").as_array())
        probes += o.at("n_probes").as_double();
      rec.add("slq.probes", probes);
      break;
    }
    default:
      break;
  }
}

void record_pool(const sched::PoolStats& d, double wall, LayerRecord& rec) {
  rec.add("sched.tasks", static_cast<double>(d.tasks));
  rec.add("sched.steals", static_cast<double>(d.steals));
  rec.add("sched.busy_s", d.busy_seconds);
  rec.add("sched.lane_s", static_cast<double>(d.threads) * wall);
  rec.add("sched.queue_s", d.queue_seconds);
}

/// The run's pass/fail rule for one job: converged, not degraded, no
/// quarantined column, and within kEnergyTol of the reference when there
/// is one.
void check_run(const svc::DriverRun& run, std::optional<double> reference,
               JobOutcome& out, double& worst_dev) {
  long quarantined = 0;
  if (run.has_rpa)
    for (const rpa::OmegaRecord& r : run.rpa.per_omega)
      quarantined += r.quarantined_columns;
  std::string why;
  if (!run.converged) why = "not converged";
  if (run.degraded) why = "degraded";
  if (quarantined > 0) why = "quarantined columns";
  if (!std::isfinite(run.e_rpa_per_atom)) why = "non-finite energy";
  if (why.empty() && reference) {
    const double dev = std::abs(run.e_rpa_per_atom - *reference);
    worst_dev = std::max(worst_dev, dev);
    if (dev > kEnergyTol) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "energy off by %.3e Ha/atom", dev);
      why = buf;
    }
  }
  if (!why.empty() && out.ok) {
    out.ok = false;
    out.reason = svc::method_name(run.method) + std::string(": ") + why;
  }
}

class Bench {
 public:
  Bench(Workload w, std::string base_text, std::string work_dir,
        std::uint64_t seed, bool tiny)
      : w_(std::move(w)),
        base_(std::move(base_text)),
        work_dir_(std::move(work_dir)),
        seed_(seed),
        tiny_(tiny) {
    std::filesystem::create_directories(work_dir_);
  }

  /// The keys of the workload's set-up, plus those of `job` if given.
  KeyValues diff(const Job* job = nullptr) const {
    KeyValues d = kBenchScale;
    if (tiny_) d.insert(d.end(), kTiny.begin(), kTiny.end());
    d.insert(d.end(), w_.diff.begin(), w_.diff.end());
    if (job != nullptr) d.insert(d.end(), job->diff.begin(), job->diff.end());
    return d;
  }

  /// The reference E_RPA/atom `job` is checked against, or none
  /// (convergence-only check). The shipped seed has pinned energies; on any
  /// other seed, the halted-and-resumed mixed-precision job is checked
  /// against an untimed fp64 run of the same seed without elision, on its
  /// own fp64 build.
  std::optional<double> reference(const Job& job) const {
    if (tiny_) return std::nullopt;
    if (seed_ == kShippedSeed)
      return pinned_energy(job.method);
    if (!job.halt_and_resume) return std::nullopt;
    const svc::JobSpec spec = make_spec(base_, kBenchScale, seed_, job.method);
    const rpa::BuiltSystem sys = rpa::build_system(spec.preset);
    return svc::run_driver(spec, sys, spec.options, nullptr).e_rpa_per_atom;
  }

  JobOutcome run_sample(const rpa::BuiltSystem& sys,
                        const std::vector<std::optional<double>>& refs,
                        bool traced, LayerRecord* rec, double& worst_dev) {
    JobOutcome out;
    for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
      const Job& job = w_.jobs[j];
      const std::string& method = job.method;
      const svc::JobSpec spec = make_spec(base_, diff(&job), seed_, method);
      rpa::RpaOptions opts = spec.options;
      obs::EventLog ck_events;
      const std::string ckpt = work_dir_ + "/" + w_.name + ".ckpt";
      if (job.halt_and_resume) {
        std::filesystem::remove(ckpt);
        opts.checkpoint.path = ckpt;
        opts.checkpoint.events = &ck_events;
        opts.checkpoint.halt_after_point = opts.ssa.freeze_after;
      }
      perfbench::reset_trace();
      perfbench::set_tracing(traced);
      const sched::PoolStats pool0 = sched::global_pool().stats();
      double wall = 0.0;
      svc::DriverRun run;
      try {
        WallTimer t;
        bool halted = false;
        try {
          run = svc::run_driver(spec, sys, opts, nullptr);
        } catch (const rpa::RunHalted&) {
          halted = true;
        }
        if (job.halt_and_resume) {
          if (!halted) throw Error("halt_after_point did not fire");
          opts.checkpoint.resume = true;
          opts.checkpoint.halt_after_point = -1;
          run = svc::run_driver(spec, sys, opts, nullptr);
        }
        wall = t.seconds();
      } catch (const std::exception& e) {
        perfbench::set_tracing(false);
        out.ok = false;
        out.reason = method + ": " + e.what();
        return out;
      }
      perfbench::set_tracing(false);
      out.seconds += wall;
      out.energies[method] = run.e_rpa_per_atom;
      check_run(run, refs[j], out, worst_dev);
      if (rec != nullptr) {
        rec->add("time_to_erpa_s." + method, wall);
        record_trace(perfbench::trace_snapshot(), method, *rec);
        record_result(run, opts, *rec);
        record_pool(sched::global_pool().stats().since(pool0), wall, *rec);
        rec->add("io.checkpoints_written",
                 static_cast<double>(
                     ck_events.count(obs::events::kCheckpointWritten)));
      }
    }
    return out;
  }

  obs::Json run(double seconds, bool trace) {
    sched::set_global_threads(w_.threads);
    obs::Json doc = obs::Json::object();
    doc["workload"] = w_.name;
    doc["threads"] = sched::global_pool().threads();
    doc["seed"] = obs::Json(seed_);

    // Set-up: kSetupBuilds builds of the same system; the last is kept for
    // the jobs.
    const svc::JobSpec setup_spec =
        make_spec(base_, diff(), seed_, w_.jobs.front().method);
    obs::Json setup = obs::Json::array();
    std::optional<rpa::BuiltSystem> sys;
    for (std::size_t i = 0; i < kSetupBuilds; ++i) {
      sys.reset();
      WallTimer t;
      sys = rpa::build_system(setup_spec.preset);
      setup.push_back(t.seconds());
    }
    doc["setup_s"] = std::move(setup);

    std::vector<std::optional<double>> refs;
    for (const Job& job : w_.jobs) refs.push_back(reference(job));

    obs::Json calib = obs::Json::object();
    if (trace)
      for (const auto& [k, v] : calibrate_kernels(*sys)) calib[k] = v;
    doc["calibration"] = std::move(calib);

    obs::Json samples = obs::Json::array();
    WallTimer window;
    for (std::size_t k = 0; k < kMaxSamples; ++k) {
      // Start samples until the measurement window has passed, so a run
      // measures at least --seconds; trace runs need one untraced and one
      // traced sample at least.
      const std::size_t min_samples = trace ? 2 : 1;
      if (k >= min_samples && window.seconds() >= seconds) break;
      const bool traced = trace && (k % 2 == 1);
      LayerRecord rec;
      double worst_dev = 0.0;
      const JobOutcome out =
          run_sample(*sys, refs, traced, traced ? &rec : nullptr, worst_dev);

      obs::Json s = obs::Json::object();
      s["traced"] = traced;
      s["ok"] = out.ok;
      s["reason"] = out.reason;
      s["seconds"] = out.seconds;
      s["erpa_dev_ha_per_atom"] = worst_dev;
      obs::Json energies = obs::Json::object();
      for (const auto& [method, e] : out.energies) energies[method] = e;
      s["e_rpa_per_atom"] = std::move(energies);
      if (traced) {
        obs::Json layers = obs::Json::object();
        for (const auto& [name, v] : rec.values) layers[name] = v;
        s["layers"] = std::move(layers);
        obs::Json top = obs::Json::array();
        for (const std::string& name : rec.top_level) top.push_back(name);
        s["top_level"] = std::move(top);
      }
      samples.push_back(std::move(s));
    }
    doc["samples"] = std::move(samples);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    doc["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return doc;
  }

 private:
  Workload w_;
  std::string base_;
  std::string work_dir_;
  std::uint64_t seed_ = kShippedSeed;
  bool tiny_ = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: rpabench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --input <Si8.rpa> --work-dir <dir> [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, input, work_dir;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      tiny = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      seed = std::atoll(argv[++i]);
    } else if (a == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (a == "--input") {
      input = argv[++i];
    } else if (a == "--work-dir") {
      work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (workload.empty() || input.empty() || work_dir.empty() || seed < 0 ||
      seconds <= 0.0 || (trace != 0 && trace != 1))
    return usage();

  std::optional<Workload> chosen;
  for (const Workload& w : workloads(tiny))
    if (w.name == workload) chosen = w;
  if (!chosen) {
    std::fprintf(stderr, "rpabench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  try {
    Bench bench(*chosen, read_file(input), work_dir,
                static_cast<std::uint64_t>(seed), tiny);
    const obs::Json doc = bench.run(seconds, trace == 1);
    std::printf("%s\n", doc.dump().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpabench: %s\n", e.what());
    return 1;
  }
  return 0;
}
