// Driver-side glue shared by compute_rpa_energy and
// compute_rpa_energy_slq: capture/restore of the per-run state a
// RunCheckpoint persists, the checkpoint lifecycle events, and the
// warm-start decontamination step (re-randomizing quarantined subspace
// columns before the next quadrature point).
#pragma once

#include <cstdint>
#include <vector>

#include "io/checkpoint.hpp"
#include "rpa/erpa.hpp"

namespace rsrpa::rpa::detail {

/// Sorted, deduplicated V-column indices quarantined since `idx_before`
/// (a cursor into SternheimerStats::quarantined_column_indices taken at
/// the start of the quadrature point).
std::vector<long> quarantined_columns_since(const SternheimerStats& stern,
                                            std::size_t idx_before);

/// Warm-start hygiene: refill the quarantined columns of `v` from
/// decorrelated Rng::derive streams keyed on (quadrature point, column) —
/// never on the engine position or thread identity — and emit a
/// warm_start_reseed event into the result log. Without this the chain
/// of paper SS III-F carries initial-guess garbage from a degraded point
/// into every omega downstream of it. No-op for empty `cols`.
void reseed_quarantined_columns(la::Matrix<double>& v,
                                const std::vector<long>& cols,
                                const Rng& rng, int omega_index,
                                obs::EventLog& events);

/// Snapshot the driver state after `completed_points` of the `ell`
/// quadrature points into a RunCheckpoint tagged with result.method. A
/// driver without a warm-start subspace (SLQ) passes a 1x1 zero `v`: the
/// container's matrix stream rejects empty shapes.
io::RunCheckpoint make_checkpoint(std::uint64_t fingerprint,
                                  int completed_points, int ell,
                                  const RpaResult& result,
                                  const la::Matrix<double>& v,
                                  const Rng& rng);

/// Load copts.path and restore it into the driver state. Refuses, with an
/// Error, a checkpoint written by another method (checked first and named
/// both ways, so a cross-method resume says why), one whose fingerprint
/// differs, and one whose sweep length or subspace shape does not match.
/// Emits run_resumed into the lifecycle sink and returns the index of the
/// first quadrature point still to run.
int restore_checkpoint(const CheckpointOptions& copts,
                       std::uint64_t fingerprint, int ell, RpaResult& result,
                       la::Matrix<double>& v, Rng& rng);

/// Post-write lifecycle: emit checkpoint_written into the sink and fire
/// the simulated-crash test hook (throws RunHalted) when armed for `k`.
void after_checkpoint_write(const CheckpointOptions& copts, int k);

}  // namespace rsrpa::rpa::detail
