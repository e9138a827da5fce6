#include "io/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/parse.hpp"
#include "io/snapshot.hpp"
#include "obs/run_report.hpp"

namespace rsrpa::io {

namespace {

constexpr char kCkptMagic[8] = {'R', 'S', 'R', 'P', 'A', 'C', '0', '1'};
constexpr char kCkptTrailer[8] = {'R', 'S', 'R', 'P', 'A', 'E', 'N', 'D'};

// FNV-1a over the byte images of the fingerprinted fields. Doubles are
// hashed bitwise: the resume contract is bitwise equivalence, so "almost
// the same tolerance" must count as a different run.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { bytes(&v, sizeof v); }
  void f64s(const double* p, std::size_t n) { bytes(p, n * sizeof(double)); }
  void b(bool v) { u64(v ? 1u : 0u); }
  void str(const char* s) { bytes(s, std::strlen(s)); }
};

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint64_t read_u64(std::istream& in, const char* what) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  RSRPA_REQUIRE_MSG(in.good(), std::string("checkpoint: truncated ") + what);
  return v;
}

obs::Json payload_json(const RunCheckpoint& ck) {
  obs::Json j = obs::Json::object();
  j["version"] = kRunCheckpointVersion;
  // As a decimal string: obs::Json integers are signed 64-bit and a
  // fingerprint's top bit is fair game.
  j["fingerprint"] = std::to_string(ck.fingerprint);
  j["ell"] = ck.ell;
  j["rng_state"] = ck.rng_state;
  // The run report keys a record by its method, so the method sits
  // beside the record, not inside it.
  j["method"] = ck.result.method;
  j["result"] = obs::to_json(ck.result);
  return j;
}

RunCheckpoint payload_from_json(const obs::Json& j) {
  const std::int64_t version = j.at("version").as_int();
  RSRPA_REQUIRE_MSG(
      version == static_cast<std::int64_t>(kRunCheckpointVersion),
      "checkpoint: unsupported format version " + std::to_string(version));
  RunCheckpoint ck;
  RSRPA_REQUIRE_MSG(parse_full_token(j.at("fingerprint").as_string(),
                                     ck.fingerprint),
                    "checkpoint: fingerprint is not an unsigned integer");
  ck.ell = static_cast<int>(j.at("ell").as_int());
  ck.rng_state = j.at("rng_state").as_string();
  ck.result =
      obs::rpa_result_from_json(j.at("result"), j.at("method").as_string());
  const int completed = ck.completed_points();
  RSRPA_REQUIRE_MSG(completed >= 1 && completed <= ck.ell,
                    "checkpoint: inconsistent completed-point count");
  return ck;
}

// The system: grid geometry and the exact Kohn-Sham state. Orbitals are
// hashed bitwise — the warm-start chain is only resumable against the
// very snapshot it was computed from.
void hash_system(Fnv1a& f, const dft::KsSystem& sys) {
  const grid::Grid3D& g = sys.h->grid();
  f.u64(g.nx());
  f.u64(g.ny());
  f.u64(g.nz());
  f.f64(g.lx());
  f.f64(g.ly());
  f.f64(g.lz());
  f.f64(sys.homo);
  f.f64(sys.lumo);
  f.u64(sys.eigenvalues.size());
  f.f64s(sys.eigenvalues.data(), sys.eigenvalues.size());
  f.u64(sys.orbitals.rows());
  f.u64(sys.orbitals.cols());
  f.f64s(sys.orbitals.data(), sys.orbitals.size());
}

// The one fingerprint domain: format tag, then the driver's method, then
// the system. Each driver's options follow.
Fnv1a run_hash(const char* method, const dft::KsSystem& sys) {
  Fnv1a f;
  f.str("rsrpa.run_checkpoint/2");
  f.str(method);
  hash_system(f, sys);
  return f;
}

void hash_sternheimer_options(Fnv1a& f, const rpa::SternheimerOptions& st) {
  f.f64(st.tol);
  f.i64(st.max_iter);
  // Precision policy joins the fingerprint: a mixed run must never resume
  // an fp64 checkpoint (or vice versa) — the iterate histories differ.
  f.i64(static_cast<long long>(st.precision));
  f.b(st.dynamic_block);
  f.i64(st.fixed_block);
  f.i64(st.max_block);
  f.b(st.galerkin_guess);
  f.b(st.resilience.enabled);
  f.i64(static_cast<long long>(st.fault.mode));
  f.i64(st.fault.at_apply);
  f.i64(st.fault.period);
  f.i64(st.fault.max_faults);
  f.f64(st.fault.magnitude);
  f.i64(st.fault.orbital);
  f.u64(st.fault.seed);
}

}  // namespace

std::uint64_t run_fingerprint(const dft::KsSystem& sys,
                              const rpa::RpaOptions& opts) {
  Fnv1a f = run_hash(rpa::methods::kSternheimer, sys);
  // RpaOptions, minus the checkpoint policy and event-sink pointers.
  f.u64(opts.n_eig);
  f.i64(opts.ell);
  f.u64(opts.tol_eig.size());
  f.f64s(opts.tol_eig.data(), opts.tol_eig.size());
  f.i64(opts.max_filter_iter);
  f.i64(opts.cheb_degree);
  f.b(opts.warm_start);
  f.u64(opts.seed);
  // Hashed apart from the other fault fields (hash_sternheimer_options)
  // so that existing Sternheimer checkpoints keep their fingerprint.
  f.i64(opts.stern.fault.omega);
  // SSA knobs change which points are elided and hence V's evolution, so
  // a checkpoint is only resumable under the same elision policy.
  f.i64(opts.ssa.freeze_after);
  f.f64(opts.ssa.residual_tol);
  hash_sternheimer_options(f, opts.stern);
  // A hook (a column-sliced apply, say) may block the Sternheimer solves
  // differently; its block-size cap is stern.max_block, hashed above.
  f.b(static_cast<bool>(opts.apply_hook));
  return f.h;
}

std::uint64_t run_fingerprint(const dft::KsSystem& sys,
                              const rpa::SlqRpaOptions& opts) {
  Fnv1a f = run_hash(rpa::methods::kSlq, sys);
  // SlqRpaOptions, minus the checkpoint policy and control pointer.
  f.i64(opts.ell);
  f.i64(opts.n_probes);
  f.i64(opts.lanczos_steps);
  f.f64(opts.target_rel_ci);
  f.i64(opts.max_probes);
  f.u64(opts.seed);
  f.i64(opts.stern.fault.omega);
  hash_sternheimer_options(f, opts.stern);
  return f.h;
}

void save_run_checkpoint(const std::string& path, const RunCheckpoint& ck) {
  const std::string payload = payload_json(ck).dump();
  atomic_write(path, [&](std::ostream& out) {
    out.write(kCkptMagic, 8);
    write_u64(out, payload.size());
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    save_matrix_stream(out, ck.v);
    out.write(kCkptTrailer, 8);
  });
}

RunCheckpoint load_run_checkpoint(const std::string& path,
                                  std::uint64_t expected_fingerprint) {
  std::ifstream in(path, std::ios::binary);
  RSRPA_REQUIRE_MSG(in.good(), "cannot open " + path);
  char magic[8] = {};
  in.read(magic, 8);
  RSRPA_REQUIRE_MSG(in.good() && std::memcmp(magic, kCkptMagic, 8) == 0,
                    "checkpoint: bad magic in " + path);
  const std::uint64_t len = read_u64(in, "payload length");
  RSRPA_REQUIRE_MSG(len > 0 && len < (1ull << 32),
                    "checkpoint: implausible payload length");
  std::string payload(static_cast<std::size_t>(len), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(len));
  RSRPA_REQUIRE_MSG(in.good(), "checkpoint: truncated payload in " + path);

  RunCheckpoint ck = payload_from_json(obs::Json::parse(payload));
  ck.v = load_matrix_stream(in);
  char trailer[8] = {};
  in.read(trailer, 8);
  RSRPA_REQUIRE_MSG(in.good() && std::memcmp(trailer, kCkptTrailer, 8) == 0,
                    "checkpoint: missing trailer (torn write?) in " + path);
  if (expected_fingerprint != 0)
    check_fingerprint(ck, expected_fingerprint, path);
  return ck;
}

void check_fingerprint(const RunCheckpoint& ck,
                       std::uint64_t expected_fingerprint,
                       const std::string& path) {
  RSRPA_REQUIRE_MSG(ck.fingerprint == expected_fingerprint,
                    "checkpoint: fingerprint mismatch — " + path +
                        " was written for a different system or options; "
                        "refusing to resume");
}

}  // namespace rsrpa::io
