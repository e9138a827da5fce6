// The quadrature sweep of Algorithms 1 and 6, shared by all four E_RPA
// drivers.
//
//   E_RPA = sum_k w_k / (2 pi) * Tr[ln(1 - M_k) + M_k]
//
// is one weighted sum over the Table II frequency grid; the drivers
// differ only in how they obtain one point's trace (Sternheimer subspace
// eigenvalues, a stochastic estimate, a dense or ISDF-compressed
// spectrum). run_sweep owns everything around that per-point work: the
// run-control poll at each point boundary, the point timer, closing the
// point into the weighted sum (a point with quarantined Sternheimer
// columns is marked degraded there), per-point checkpoint and resume, the
// one-time precision notice, and the run totals (e_rpa_per_atom,
// total_seconds).
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "rpa/erpa.hpp"

namespace rsrpa::rpa {

/// One quadrature point's work. `rec` arrives with omega and weight set;
/// the driver fills in the point's trace inputs (eigenvalues, or e_term
/// with probe statistics) and its telemetry. The sweep times the point
/// and closes it.
using PointWork = std::function<void(int k, OmegaRecord& rec)>;

/// What a driver hands the sweep besides its per-point work.
struct Sweep {
  int ell = 0;             ///< quadrature points (Table II scheme)
  std::size_t n_atoms = 0; ///< divides e_rpa into e_rpa_per_atom
  const RunControl* control = nullptr;
  /// The Sternheimer options of a run that solves Sternheimer equations:
  /// a mixed-precision tolerance below single-precision reach gets the
  /// one-time precision_clamped notice. Null for the dense backends.
  const SternheimerOptions* stern = nullptr;
  /// Per-point checkpoint policy; null for a run that never checkpoints
  /// (direct, ISDF). With a path set, `fingerprint`, `v` and `rng` must
  /// be set too: they are the driver state a RunCheckpoint persists
  /// beside the run record.
  const CheckpointOptions* checkpoint = nullptr;
  std::uint64_t fingerprint = 0;
  /// Warm-start subspace; a 1x1 zero for a driver without one (SLQ): the
  /// container's matrix stream rejects empty shapes.
  la::Matrix<double>* v = nullptr;
  Rng* rng = nullptr;
  /// Runs after the point is closed and before the checkpoint write, so the
  /// persisted state already includes its effect (Sternheimer's
  /// quarantine reseed).
  std::function<void(int k)> after_close;
};

/// Run points [k0, ell) of the sweep into `result`, where k0 is 0 or, on
/// a resume, the first point the checkpoint at sweep.checkpoint->path has
/// not completed. `total` is the driver's wall timer, read into
/// result.total_seconds at the end. `result` keeps its address: a
/// driver may have handed out pointers into it (the solver telemetry
/// sink) before the call.
void run_sweep(const Sweep& sweep, const WallTimer& total, RpaResult& result,
               const PointWork& work);

}  // namespace rsrpa::rpa
