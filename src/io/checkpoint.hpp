// Crash-safe run checkpoints for the RPA quadrature sweep.
//
// A full E_RPA run is ell subspace iterations, each hiding thousands of
// Sternheimer solves; PR 3's resilience ladder made individual solves
// survivable, and this layer gives the same property to the run itself.
// After every quadrature point the sweep (rpa/sweep.hpp) persists a
// RunCheckpoint — the run record so far (partial E_RPA sum, the completed
// OmegaRecords with their quarantine/degraded flags and matvec counters,
// solver statistics, kernel timers, event log), the warm-start subspace V
// (the eigenvector chain of paper SS III-F, which is exactly the state
// the next point needs), the driver RNG state, and a fingerprint of the
// system + options. A killed run resumed from its checkpoint replays the
// remaining points from identical state, so its E_RPA, per-omega records
// and run-report JSON are bitwise identical to an uninterrupted run
// (whenever the computation itself is deterministic; see
// docs/REPRODUCING.md, "Checkpoint and resume").
//
// Container layout (little-endian), format version 3:
//   magic "RSRPAC01"
//   u64 payload_len, then payload_len bytes of JSON: version, fingerprint,
//       ell, rng_state, method, and `result` — the run record in its
//       run-report form (obs::to_json; doubles round-trip bitwise)
//   the warm-start matrix V in the save_matrix stream format
//   trailing magic "RSRPAEND" (truncation tripwire)
// All writes go through io::atomic_write (tmp + fsync + rename), so a
// crash mid-write can never tear the file readers see.
#pragma once

#include <cstdint>
#include <string>

#include "dft/ks_system.hpp"
#include "la/matrix.hpp"
#include "rpa/erpa.hpp"
#include "rpa/erpa_slq.hpp"

namespace rsrpa::io {

/// Bump when a field changes meaning; never reuse a name for a different
/// quantity (same contract as the run-report schema).
/// Version 3: the payload carries the run record itself, in its
/// run-report form, instead of a copy of its fields.
inline constexpr std::uint32_t kRunCheckpointVersion = 3;

/// Everything the drivers need to continue a quadrature sweep after the
/// last completed point: the run record so far, which keeps the final run
/// report seamless across the restart, plus the driver state beside it.
struct RunCheckpoint {
  std::uint64_t fingerprint = 0;  ///< run_fingerprint() of system + options
  int ell = 0;                    ///< total points of the sweep
  std::string rng_state;          ///< Rng::save_state() of the driver RNG
  /// The run record after the completed points, tagged with the method
  /// of the driver that wrote it: a driver resumes only its own method's
  /// checkpoints.
  rpa::RpaResult result;
  /// Warm-start subspace after the point; a 1x1 zero for SLQ, which has
  /// none (the matrix stream format rejects empty shapes).
  la::Matrix<double> v;

  /// Quadrature points fully accumulated.
  [[nodiscard]] int completed_points() const {
    return static_cast<int>(result.per_omega.size());
  }
};

/// Fingerprint of everything a checkpoint must agree with before resume:
/// the driver's method, the grid, the orbitals and eigenvalues (bitwise),
/// and every computation-relevant option (tolerances, seeds, resilience
/// and fault-injection policy — but NOT the checkpoint policy itself).
/// One hash domain for both checkpointing drivers; the method enters the
/// hash, so an SLQ fingerprint never equals the Sternheimer fingerprint
/// of the same system.
std::uint64_t run_fingerprint(const dft::KsSystem& sys,
                              const rpa::RpaOptions& opts);
/// SLQ options: probe counts, Lanczos depth, seed, the adaptive-CI
/// policy and the Sternheimer solver options.
std::uint64_t run_fingerprint(const dft::KsSystem& sys,
                              const rpa::SlqRpaOptions& opts);

/// Atomically persist `ck` (tmp + fsync + rename). Throws Error on I/O
/// failure; on failure the previous checkpoint at `path` is untouched.
void save_run_checkpoint(const std::string& path, const RunCheckpoint& ck);

/// Load and validate a checkpoint: magic, version, trailer, internal
/// shape consistency, and — when `expected_fingerprint` is nonzero —
/// refusal of a file written for a different system or options. Throws
/// Error on any mismatch or torn/corrupt file.
RunCheckpoint load_run_checkpoint(const std::string& path,
                                  std::uint64_t expected_fingerprint = 0);

/// Throw Error unless `ck` was written for `expected_fingerprint`; `path`
/// names the file in the message.
void check_fingerprint(const RunCheckpoint& ck,
                       std::uint64_t expected_fingerprint,
                       const std::string& path);

}  // namespace rsrpa::io
