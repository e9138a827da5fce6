// rpacalc — the artifact-style command line driver.
//
// Mirrors the paper artifact's `rpacalc -name Si8` interface: reads
// <name>.rpa (the artifact's key-value format) plus optional system keys,
// runs the full pipeline, and writes a <name>.out report.
//
//   ./examples/rpacalc -name Si8            # reads Si8.rpa
//   ./examples/rpacalc -name Si8 --checkpoint Si8.ckpt --resume
//
// Recognized keys (artifact keys first, same semantics):
//   METHOD           sternheimer|direct|isdf|slq backend   (default sternheimer)
//   N_NUCHI_EIGS     total eigenvalues of nu chi0 to converge
//   N_OMEGA          quadrature points (Table II scheme)
//   TOL_EIG          per-omega subspace tolerances (list)
//   TOL_STERN_RES    Sternheimer relative-residual tolerance
//   MAXIT_FILTERING  max filter iterations per omega
//   CHEB_DEGREE_RPA  Chebyshev filter degree
//   FLAG_COCGINITIAL 1 = Galerkin initial guess (Eq. 13)
//   N_CELLS          silicon cells along z            (default 1)
//   GRID_PER_CELL    FD points per cell edge          (default 11)
//   FD_RADIUS        stencil radius                   (default 4)
//   PERTURBATION     atom jitter / lattice constant   (default 0.01)
//   SEED             crystal RNG seed                 (default 7)
//
// Precision / apply-path keys (DESIGN.md "Precision model",
// docs/REPRODUCING.md "Sanitizer and precision matrix"):
//   PRECISION   fp64 (default, bitwise-reproducible) or mixed: FP32 inner
//               Sternheimer iterations with FP64 residual replacement and
//               an FP32 CheFSI filter workspace; agrees with fp64 to
//               <= 1e-4 Ha/atom at the correlation energy
//   SIMD        -1 inherit RSRPA_SIMD env (auto-on when compiled in),
//               0 scalar stencil rows, 1 vectorized rows — both paths
//               are bitwise identical
//
// Failure-semantics keys (docs/REPRODUCING.md, "Failure semantics"):
//   RESILIENCE         1 = breakdown-recovery ladder on (default 1)
//   MAX_RESTARTS       rung-1 restart budget per block (default 1)
//   STAGNATION_WINDOW  iterations without improvement before breakdown
//                      (default 0 = off)
//   STAGNATION_FACTOR  required improvement per window (default 0.99)
//   FAULT_MODE         none|nan|perturb|zero            (default none)
//   FAULT_AT_APPLY     apply index of the first fault   (default 1)
//   FAULT_PERIOD       refire period; 0 = fire once     (default 0)
//   FAULT_MAX          total fault budget per orbital   (default 1)
//   FAULT_MAGNITUDE    perturbation scale               (default 1e-2)
//   FAULT_ORBITAL      occupied orbital to hit; -1 = all
//   FAULT_OMEGA        quadrature point to hit; -1 = all
//   FAULT_SEED         RNG base for perturbed matvecs
//
// Backend keys (docs/REPRODUCING.md, "Choosing a backend"):
//   DIRECT_FULL_TRACE  1 = full-spectrum trace (default); 0 truncates the
//                      direct trace to N_NUCHI_EIGS per omega
//   ISDF_NIP / ISDF_C  interpolation-point count, absolute or as c * n_occ
//   ISDF_OVERSAMPLE    extra sketch columns per side        (default 4)
//   ISDF_RIDGE         initial Gram-fit ridge               (default 0)
//   ISDF_SEED          sketch RNG seed
//   ISDF_FULL_TRACE    1 = whole compressed spectrum; default truncates
//                      like the Sternheimer driver
//   SLQ_PROBES / SLQ_LANCZOS_STEPS / SLQ_SEED  stochastic trace knobs
//   SLQ_TARGET_REL_CI  > 0 arms the variance-adaptive probe stop rule:
//                      probe batches are added until each point's relative
//                      95% CI half-width reaches the target (default 0 =
//                      fixed SLQ_PROBES)
//   SLQ_MAX_PROBES     adaptive probe budget cap; 0 = 8x SLQ_PROBES
//
// Static-subspace elision keys (docs/REPRODUCING.md, "Knobs that matter"):
//   SSA_FREEZE_AFTER   freeze the warm-start subspace after this many
//                      fully solved quadrature points and evaluate the
//                      rest by projection (default 0 = off)
//   SSA_RESIDUAL_TOL   projection-residual bound; above it the point
//                      falls back to a full solve    (default 5e-3)
//   SSA_REFRESH        1 = a fallback's eigenvectors refresh the frozen
//                      basis (default); 0 = basis stays frozen
//
// Checkpoint/restart keys (docs/REPRODUCING.md, "Checkpoint and resume"):
//   CHECKPOINT  path of the run checkpoint, written atomically after every
//               quadrature point (default: off)
//   RESUME      1 = pick the run up from CHECKPOINT when the file exists
//               (missing file starts fresh; mismatched fingerprint refuses)
// The --checkpoint <path> and --resume flags override these keys.
// Checkpointing covers the sternheimer and slq methods; with direct or
// isdf the keys are accepted but ignored (a warning is printed) and an
// interrupted run restarts from scratch.
//
// The key -> options mapping lives in svc::parse_job and the METHOD
// dispatch in svc::run_driver — both shared with the rpaserved job
// daemon, so a config means the same thing standalone or submitted to a
// server. Besides <name>.out, every run writes the backend's structured
// run report to <name>.report.json (schema: docs/REPRODUCING.md).
//
// SIGINT/SIGTERM request cooperative cancellation: the run stops at the
// next quadrature-point boundary (where the previous point's checkpoint,
// when enabled, is already durable) and rpacalc exits with status 3 —
// distinct from success (0), non-convergence (1) and config errors (2) —
// so an interrupted run is always resumable with --resume.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/config.hpp"
#include "obs/event_log.hpp"
#include "obs/run_report.hpp"
#include "svc/driver.hpp"
#include "svc/job.hpp"

namespace {

rsrpa::rpa::RunControl g_control;
void on_signal(int) { g_control.request_cancel(); }  // one atomic store

void usage() {
  std::fprintf(stderr,
               "usage: rpacalc -name <system> [--checkpoint <path>] "
               "[--resume]\n"
               "       (reads <system>.rpa, writes <system>.out)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rsrpa;

  std::string name;
  std::string checkpoint_path;
  bool resume = false;
  bool resume_flag_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-name") == 0 && i + 1 < argc)
      name = argv[++i];
    else if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc)
      checkpoint_path = argv[++i];
    else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
      resume_flag_set = true;
    }
  }
  if (name.empty()) {
    usage();
    return 2;
  }

  Config cfg;
  svc::JobSpec spec;
  try {
    cfg = Config::parse_file(name + ".rpa");
    spec = svc::parse_job(cfg);
  } catch (const Error& e) {
    std::fprintf(stderr, "rpacalc: %s\n", e.what());
    return 2;
  }

  const rpa::SystemPreset& preset = spec.preset;
  std::printf("rpacalc: building %s (n_d = %zu, n_s = %zu)\n",
              preset.name.c_str(), preset.n_grid(), preset.n_occ());
  rpa::BuiltSystem sys = rpa::build_system(preset);

  rpa::RpaOptions opts = spec.options;

  // Crash-safe checkpoint/restart: flags override the .rpa keys. The
  // lifecycle events land in a process-local sink — they describe this
  // process's I/O, not the physics, and stay out of the result log.
  obs::EventLog ck_events;
  if (checkpoint_path.empty()) checkpoint_path = spec.checkpoint;
  if (!resume_flag_set) resume = spec.resume;
  if (!checkpoint_path.empty() && spec.method != svc::Method::kSternheimer &&
      spec.method != svc::Method::kSlq) {
    // The Sternheimer and SLQ drivers have resumable per-point state;
    // direct and isdf recompute from scratch, so a checkpoint would be
    // dead weight. Accept the config but say so.
    std::fprintf(stderr,
                 "rpacalc: warning: METHOD %s does not checkpoint; "
                 "ignoring %s\n",
                 svc::method_name(spec.method), checkpoint_path.c_str());
    checkpoint_path.clear();
  }
  if (!checkpoint_path.empty()) {
    opts.checkpoint.path = checkpoint_path;
    opts.checkpoint.resume = resume;
    opts.checkpoint.events = &ck_events;
    std::printf("rpacalc: checkpointing to %s after every quadrature point"
                "%s\n",
                checkpoint_path.c_str(),
                resume ? " (resuming if present)" : "");
  }

  // Cooperative cancellation: Ctrl-C stops the run at the next
  // quadrature-point boundary instead of killing it mid-solve.
  opts.control = &g_control;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  svc::DriverRun run;
  try {
    run = svc::run_driver(spec, sys, opts, &g_control);
  } catch (const rpa::RunCancelled&) {
    if (!checkpoint_path.empty()) {
      std::size_t written = ck_events.count(obs::events::kCheckpointWritten);
      std::fprintf(stderr,
                   "rpacalc: interrupted at a quadrature-point boundary; "
                   "%zu checkpoint(s) at %s — rerun with --resume\n",
                   written, checkpoint_path.c_str());
    } else {
      std::fprintf(stderr,
                   "rpacalc: interrupted at a quadrature-point boundary "
                   "(no CHECKPOINT configured, progress discarded)\n");
    }
    return 3;
  }

  for (const obs::Event& e : ck_events.events())
    if (e.kind == obs::events::kRunResumed)
      std::printf("rpacalc: %s\n", e.detail.c_str());
  if (!checkpoint_path.empty())
    std::printf("rpacalc: wrote %zu checkpoint(s)\n",
                ck_events.count(obs::events::kCheckpointWritten));

  std::ostringstream out;
  out << "***************************************************************\n"
      << "                    rsrpa RPA calculation\n"
      << "***************************************************************\n";
  for (const std::string& key : cfg.keys())
    out << key << ": " << cfg.get_string(key) << "\n";
  out << "\n";
  char line[256];
  const rpa::RpaResult& res = run.rpa;
  const bool sternheimer = run.method == svc::Method::kSternheimer;
  // The other backends have no filter/residual columns: they print the
  // backend-agnostic row (the extras live in <name>.report.json).
  if (!sternheimer)
    out << "method: " << svc::method_name(run.method) << "\n";
  for (std::size_t k = 0; k < res.per_omega.size(); ++k) {
    const rpa::OmegaRecord& r = res.per_omega[k];
    if (sternheimer)
      // The original artifact-style per-omega rows, byte-for-byte — the
      // quickstart reference output depends on this format.
      std::snprintf(line, sizeof line,
                    "omega %zu (value %.3f, weight %.3f)\n"
                    "ncheb %d | ErpaTerm %.5E Ha | eig error %.3E | %.2f s\n",
                    k + 1, r.omega, r.weight, r.filter_iterations, r.e_term,
                    r.error, r.seconds);
    else
      std::snprintf(line, sizeof line,
                    "omega %zu (value %.3f, weight %.3f)\n"
                    "ErpaTerm %.5E Ha | %.2f s\n",
                    k + 1, r.omega, r.weight, r.e_term, r.seconds);
    out << line;
  }
  std::snprintf(line, sizeof line,
                "\nTotal RPA correlation energy: %.5E (Ha), %.5E (Ha/atom)\n"
                "Total walltime: %.3f sec\n",
                res.e_rpa, res.e_rpa_per_atom, res.total_seconds);
  out << line;
  if (res.degraded) {
    long quarantined = 0;
    for (const rpa::OmegaRecord& r : res.per_omega)
      quarantined += r.quarantined_columns;
    std::snprintf(line, sizeof line,
                  "WARNING: degraded run — %ld Sternheimer column(s) "
                  "quarantined (see the quad_point_degraded events)\n",
                  quarantined);
    out << line;
  }

  std::ofstream f(name + ".out");
  f << out.str();
  std::fputs(out.str().c_str(), stdout);
  std::printf("rpacalc: wrote %s.out\n", name.c_str());

  // The machine-readable counterpart: the backend's run report under its
  // method-name key. The job service writes the same payload, but keeps
  // the historical "rpa" key for the Sternheimer method (rpacalc writes
  // it under "sternheimer"); docs/REPRODUCING.md "Run reports".
  try {
    obs::RunReport report(name);
    report.set("method", obs::Json(svc::method_name(run.method)));
    report.set(svc::method_name(run.method), run.report);
    report.write(name + ".report.json");
    std::printf("rpacalc: wrote %s.report.json\n", name.c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "rpacalc: failed to write %s.report.json: %s\n",
                 name.c_str(), e.what());
  }
  return res.converged ? 0 : 1;
}
