// E_RPA via stochastic Lanczos quadrature — the paper's SS V future-work
// replacement for the dense generalized eigensolve.
//
// At each quadrature point the functional trace Tr[ln(1 - M) + M] with
// M = nu^{1/2} chi0(i omega) nu^{1/2} is estimated directly by SLQ: each
// Rademacher probe runs a short Lanczos recurrence in M (every step one
// Sternheimer pass over a single vector), and probes are INDEPENDENT — the
// embarrassing parallelism the paper wants at large processor counts,
// with no subspace, no Gram matrices, and no eigensolve.
//
// Trade-off: stochastic error ~1/sqrt(n_probes) instead of a subspace
// truncation error, and no warm start to exploit. The a6 bench compares
// both drivers head to head.
#pragma once

#include "obs/event_log.hpp"
#include "rpa/erpa.hpp"
#include "rpa/nu_chi0.hpp"

namespace rsrpa::rpa {

struct SlqRpaOptions {
  int ell = 8;             ///< quadrature points (Table II scheme)
  int n_probes = 16;       ///< Rademacher probes per batch (see target_rel_ci)
  int lanczos_steps = 16;  ///< Lanczos iterations per probe
  /// Variance-adaptive stop rule (SLQ_TARGET_REL_CI). When > 0, each
  /// point keeps adding batches of n_probes until the relative 95%
  /// confidence half-width of the trace estimate — 1.96 * stddev /
  /// (sqrt(n) * |e_term|) — drops to this target or max_probes is hit.
  /// 0 (default) keeps the fixed n_probes behavior.
  double target_rel_ci = 0.0;
  /// Probe budget cap for the adaptive rule; 0 means 8 * n_probes.
  int max_probes = 0;
  SternheimerOptions stern;
  std::uint64_t seed = 0x51ab5eedULL;
  /// Per-quadrature-point crash-safe checkpointing, same container and
  /// lifecycle as the Sternheimer drivers (io/checkpoint.hpp).
  CheckpointOptions checkpoint;
  /// Cooperative cancel/preempt, polled at quadrature-point boundaries
  /// like the other drivers. Not owned.
  RunControl* control = nullptr;
};

/// Each point's record carries its probe statistics (OmegaRecord::probes)
/// and no eigenvalues; the point counts as converged, since the
/// estimate's accuracy lives in its confidence interval, unless the
/// recovery ladder quarantined Sternheimer columns while estimating it:
/// the record then carries their count and the point is degraded, as in
/// compute_rpa_energy. The ladder's events land in the result log.
RpaResult compute_rpa_energy_slq(const dft::KsSystem& sys,
                                 const poisson::KroneckerLaplacian& klap,
                                 const SlqRpaOptions& opts);

/// Total single-vector operator applies of an SLQ run: the sum of its
/// points' probe matvec_columns.
inline long slq_matvec_columns(const RpaResult& result) {
  long applies = 0;
  for (const OmegaRecord& rec : result.per_omega)
    if (rec.probes) applies += rec.probes->matvec_columns;
  return applies;
}

}  // namespace rsrpa::rpa
