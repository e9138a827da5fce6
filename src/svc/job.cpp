#include "svc/job.hpp"

#include <string>
#include <utility>

namespace rsrpa::svc {

Method method_from_string(const std::string& s) {
  for (Method m : {Method::kSternheimer, Method::kDirect, Method::kIsdf,
                   Method::kSlq})
    if (s == method_name(m)) return m;
  throw Error("unknown METHOD '" + s +
              "' (expected sternheimer|direct|isdf|slq)");
}

const char* method_name(Method m) {
  switch (m) {
    case Method::kSternheimer: return rpa::methods::kSternheimer;
    case Method::kDirect: return rpa::methods::kDirect;
    case Method::kIsdf: return rpa::methods::kIsdf;
    case Method::kSlq: return rpa::methods::kSlq;
  }
  return rpa::methods::kSternheimer;
}

JobSpec parse_job(const Config& cfg) {
  JobSpec spec;

  // Validate method and fault mode before anything else: a typo in the
  // config should fail in milliseconds, not after a system build.
  // Removed keys fail the same way, so an old config never runs with its
  // setting silently ignored.
  constexpr const char* kStencil =
      "the fused single-sweep stencil apply with fixed 32x16 tiles is the "
      "only schedule";
  constexpr const char* kNoProgress =
      "a slowly converging solve always runs to its iteration limit";
  constexpr std::pair<const char*, const char*> kRemoved[] = {
      {"FUSED_APPLY", kStencil},
      {"TILE_Y", kStencil},
      {"TILE_Z", kStencil},
      {"SSA_REFRESH",
       "an SSA fallback's converged eigenvectors always become the new "
       "frozen basis"},
      {"RESILIENCE",
       "the breakdown-recovery ladder is always on for every Sternheimer "
       "solve"},
      {"MAX_RESTARTS",
       "the recovery ladder spends exactly one residual-replacement "
       "restart per block"},
      {"STAGNATION_WINDOW", kNoProgress},
      {"STAGNATION_FACTOR", kNoProgress}};
  for (const auto& [key, why] : kRemoved)
    if (cfg.has(key))
      throw Error(std::string(key) + " was removed: " + why +
                  "; delete the key");
  spec.method = method_from_string(
      cfg.has("METHOD") ? cfg.get_string("METHOD") : "sternheimer");
  const solver::FaultMode fault_mode = solver::fault_mode_from_string(
      cfg.has("FAULT_MODE") ? cfg.get_string("FAULT_MODE") : "none");

  // Counts and sizes, refused naming the key when below their minimum:
  // most are cast to size_t, where -1 would become 2^64 - 1 cells or
  // sketch columns.
  const auto get_count = [&cfg](const char* key, int fallback, int min) {
    const int v = cfg.get_int_or(key, fallback);
    if (v < min)
      throw Error(std::string(key) + " must be >= " + std::to_string(min) +
                  ", got " + std::to_string(v));
    return v;
  };

  rpa::SystemPreset& preset = spec.preset;
  preset.ncells = static_cast<std::size_t>(get_count("N_CELLS", 1, 1));
  preset.name = "Si" + std::to_string(8 * preset.ncells);
  preset.grid_per_cell =
      static_cast<std::size_t>(get_count("GRID_PER_CELL", 11, 1));
  if (cfg.has("N_EIG_PER_ATOM"))
    preset.n_eig_per_atom =
        static_cast<std::size_t>(get_count("N_EIG_PER_ATOM", 0, 1));
  preset.fd_radius = get_count("FD_RADIUS", 4, 1);
  preset.perturbation = cfg.get_double_or("PERTURBATION", 0.01);
  preset.seed = static_cast<std::uint64_t>(cfg.get_int_or("SEED", 7));
  // SIMD stencil rows, resolved per Hamiltonian instance in build_system;
  // the RSRPA_SIMD env var is only the process default (see
  // grid/stencil.hpp).
  preset.simd = cfg.get_int_or("SIMD", -1);
  // PRECISION governs the Sternheimer inner iterations only (via
  // stern.precision, inherited by every METHOD backend below); the ground
  // state is FP64 either way. Default fp64 reproduces the seed bitwise;
  // mixed is bitwise-or-tolerance (<= 1e-4 Ha/atom).
  const common::Precision precision = common::precision_from_string(
      cfg.has("PRECISION") ? cfg.get_string("PRECISION") : "fp64");

  // RpaOptions' own defaults, with n_eig resolved from the preset alone
  // (no system build needed to know what a job will do).
  rpa::RpaOptions& opts = spec.options;
  opts.n_eig = preset.n_eig();

  if (cfg.has("N_NUCHI_EIGS"))
    opts.n_eig = static_cast<std::size_t>(get_count("N_NUCHI_EIGS", 0, 1));
  opts.ell = get_count("N_OMEGA", opts.ell, 1);
  if (cfg.has("TOL_EIG")) opts.tol_eig = cfg.get_doubles("TOL_EIG");
  opts.stern.tol = cfg.get_double_or("TOL_STERN_RES", opts.stern.tol);
  opts.max_filter_iter =
      get_count("MAXIT_FILTERING", opts.max_filter_iter, 0);
  opts.cheb_degree = get_count("CHEB_DEGREE_RPA", opts.cheb_degree, 1);
  opts.stern.galerkin_guess = cfg.get_int_or("FLAG_COCGINITIAL", 1) != 0;
  // Algorithm 4 block sizing is wall-clock-driven; jobs that must be
  // bitwise reproducible (the soak bench's standalone-equality check) pin
  // DYNAMIC_BLOCK: 0 with a fixed BLOCK_SIZE.
  opts.stern.dynamic_block = cfg.get_int_or("DYNAMIC_BLOCK", 1) != 0;
  opts.stern.fixed_block =
      cfg.get_int_or("BLOCK_SIZE", opts.stern.fixed_block);
  opts.stern.precision = precision;

  // Failure semantics: the recovery ladder is always on; the
  // deterministic fault-injection harness drives it (chaos drills / soak
  // tests).
  opts.stern.fault.mode = fault_mode;
  opts.stern.fault.at_apply = cfg.get_int_or("FAULT_AT_APPLY", 1);
  opts.stern.fault.period = cfg.get_int_or("FAULT_PERIOD", 0);
  opts.stern.fault.max_faults = cfg.get_int_or("FAULT_MAX", 1);
  opts.stern.fault.magnitude = cfg.get_double_or("FAULT_MAGNITUDE", 1e-2);
  // A drill aimed past the last orbital or quadrature point would inject
  // nothing and pass as clean: -1 (every one) or an index below the count.
  const auto get_target = [&cfg](const char* key, std::size_t count,
                                 const char* what) {
    const int v = cfg.get_int_or(key, -1);
    if (v < -1 || (v >= 0 && static_cast<std::size_t>(v) >= count))
      throw Error(std::string(key) + " must be -1 or in [0, " +
                  std::to_string(count) + ") (" + what + "), got " +
                  std::to_string(v));
    return v;
  };
  opts.stern.fault.orbital =
      get_target("FAULT_ORBITAL", preset.n_occ(), "the occupied orbitals");
  opts.stern.fault.omega = get_target(
      "FAULT_OMEGA", static_cast<std::size_t>(opts.ell), "N_OMEGA");
  if (cfg.has("FAULT_SEED"))
    opts.stern.fault.seed =
        static_cast<std::uint64_t>(cfg.get_int("FAULT_SEED"));

  // Static subspace approximation (quadrature-point elision); 0 keeps
  // every point a full solve. See docs/REPRODUCING.md, "Knobs that
  // matter".
  opts.ssa.freeze_after = cfg.get_int_or("SSA_FREEZE_AFTER", 0);
  opts.ssa.residual_tol =
      cfg.get_double_or("SSA_RESIDUAL_TOL", opts.ssa.residual_tol);
  RSRPA_REQUIRE_MSG(opts.ssa.freeze_after >= 0,
                    "SSA_FREEZE_AFTER must be >= 0");
  RSRPA_REQUIRE_MSG(opts.ssa.residual_tol > 0.0,
                    "SSA_RESIDUAL_TOL must be > 0");

  // Backend-specific options, kept in lockstep with the resolved shared
  // knobs (ell, n_eig, Sternheimer sub-options) so METHOD only changes
  // the route to the trace, not the question being asked.
  spec.slq.ell = opts.ell;
  spec.slq.stern = opts.stern;
  spec.slq.n_probes = cfg.get_int_or("SLQ_PROBES", spec.slq.n_probes);
  spec.slq.lanczos_steps =
      cfg.get_int_or("SLQ_LANCZOS_STEPS", spec.slq.lanczos_steps);
  if (cfg.has("SLQ_SEED"))
    spec.slq.seed = static_cast<std::uint64_t>(cfg.get_int("SLQ_SEED"));
  // Variance-adaptive probe stop rule: 0 (default) keeps the fixed
  // SLQ_PROBES behavior; > 0 adds probe batches until the relative 95%
  // CI half-width of each point's trace estimate reaches the target.
  spec.slq.target_rel_ci = cfg.get_double_or("SLQ_TARGET_REL_CI", 0.0);
  spec.slq.max_probes = cfg.get_int_or("SLQ_MAX_PROBES", 0);
  RSRPA_REQUIRE_MSG(spec.slq.n_probes >= 1 && spec.slq.lanczos_steps >= 1,
                    "SLQ_PROBES and SLQ_LANCZOS_STEPS must be >= 1");
  RSRPA_REQUIRE_MSG(spec.slq.target_rel_ci >= 0.0,
                    "SLQ_TARGET_REL_CI must be >= 0");
  RSRPA_REQUIRE_MSG(spec.slq.max_probes == 0 ||
                        spec.slq.max_probes >= spec.slq.n_probes,
                    "SLQ_MAX_PROBES must be 0 or >= SLQ_PROBES");

  spec.isdf.ell = opts.ell;
  spec.isdf.n_eig =
      cfg.get_int_or("ISDF_FULL_TRACE", 0) != 0 ? 0 : opts.n_eig;
  spec.isdf.nip = static_cast<std::size_t>(get_count("ISDF_NIP", 0, 0));
  spec.isdf.c_nip = cfg.get_double_or("ISDF_C", spec.isdf.c_nip);
  spec.isdf.oversample = static_cast<std::size_t>(get_count(
      "ISDF_OVERSAMPLE", static_cast<int>(spec.isdf.oversample), 0));
  spec.isdf.ridge = cfg.get_double_or("ISDF_RIDGE", spec.isdf.ridge);
  if (cfg.has("ISDF_SEED"))
    spec.isdf.seed = static_cast<std::uint64_t>(cfg.get_int("ISDF_SEED"));
  RSRPA_REQUIRE_MSG(spec.isdf.c_nip > 0.0, "ISDF_C must be > 0");
  RSRPA_REQUIRE_MSG(spec.isdf.ridge >= 0.0, "ISDF_RIDGE must be >= 0");

  spec.direct_n_keep =
      cfg.get_int_or("DIRECT_FULL_TRACE", 1) != 0 ? 0 : opts.n_eig;

  // Service-level keys. The checkpoint pair is advisory for rpacalc; the
  // job service always pins a job's checkpoint to its spool directory.
  spec.priority = cfg.get_int_or("PRIORITY", 0);
  spec.quota = cfg.get_int_or("THREADS", 0);
  RSRPA_REQUIRE_MSG(spec.quota >= 0, "THREADS must be >= 0");
  if (cfg.has("CHECKPOINT")) spec.checkpoint = cfg.get_string("CHECKPOINT");
  spec.resume = cfg.get_int_or("RESUME", 0) != 0;

  return spec;
}

JobSpec parse_job_file(const std::string& path) {
  return parse_job(Config::parse_file(path));
}

}  // namespace rsrpa::svc
