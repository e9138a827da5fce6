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
#include "rpa/erpa_slq.hpp"

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

/// Snapshot the driver state after `completed_points` quadrature points
/// into a RunCheckpoint, including the per-rank seconds when the result
/// carries them.
io::RunCheckpoint make_checkpoint(std::uint64_t fingerprint,
                                  int completed_points,
                                  const RpaOptions& opts,
                                  const RpaResult& result,
                                  const la::Matrix<double>& v,
                                  const Rng& rng);

/// Restore a loaded checkpoint into the driver state; validates the sweep
/// shape and that the checkpoint carries per-rank seconds exactly when
/// `result` has a rank section (of opts.n_ranks rows), emits run_resumed
/// into the lifecycle sink, and returns the index of the first quadrature
/// point still to run.
int restore_checkpoint(io::RunCheckpoint&& ck, const RpaOptions& opts,
                       RpaResult& result, la::Matrix<double>& v, Rng& rng);

/// Post-write lifecycle: emit checkpoint_written into the sink and fire
/// the simulated-crash test hook (throws RunHalted) when armed for `k`.
void after_checkpoint_write(const CheckpointOptions& copts, int k);

/// SLQ flavor of make_checkpoint: snapshot compute_rpa_energy_slq's state
/// after `completed_points` quadrature points. The stochastic driver has
/// no subspace, so the container's V slot gets a 1x1 zero placeholder.
io::RunCheckpoint make_slq_checkpoint(std::uint64_t fingerprint,
                                      int completed_points,
                                      const SlqRpaOptions& opts,
                                      const SlqRpaResult& result,
                                      const Rng& rng);

/// SLQ flavor of restore_checkpoint: rebuilds the partial sums, per-point
/// records, matvec counter, and driver RNG; emits run_resumed into the
/// lifecycle sink; returns the index of the first point still to run.
int restore_slq_checkpoint(io::RunCheckpoint&& ck, const SlqRpaOptions& opts,
                           SlqRpaResult& result, long& applies, Rng& rng);

}  // namespace rsrpa::rpa::detail
