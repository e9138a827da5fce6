// The ISDF RPA correlation-energy driver — the cubic-scaling third
// backend beside the Sternheimer (rpa/erpa) and dense-direct
// (direct/direct_rpa) routes.
//
// Pipeline per run: one full diagonalization of H (shared with the direct
// backend), randomized interpolation-point selection (isdf/points), the
// least-squares interpolation-vector fit (isdf/fit), then per quadrature
// point the nip x nip compressed spectrum of nu^{1/2} chi0 nu^{1/2}
// (isdf/compressed) feeding the same Tr[ln(I - M) + M] accumulation the
// other drivers use. By default the trace is truncated to the n_eig most
// negative eigenvalues so ISDF is directly comparable to the Sternheimer
// driver at the same N_NUCHI_EIGS; n_eig = 0 keeps the full compressed
// trace (the large-n_eig regime the iterative backends cannot reach).
#pragma once

#include <cstdint>
#include <vector>

#include "dft/ks_system.hpp"
#include "obs/event_log.hpp"
#include "poisson/kronecker.hpp"
#include "rpa/erpa.hpp"

namespace rsrpa::isdf {

/// Kernel-timer bucket names (beyond compressed.hpp's assemble/eigensolve
/// and the shared rpa::kernels::kDiagonalize).
namespace kernels {
inline constexpr const char* kSelect = "isdf_select";
inline constexpr const char* kFit = "isdf_fit";
}  // namespace kernels

struct IsdfRpaOptions {
  int ell = 8;  ///< N_OMEGA
  /// Keep the `n_eig` most negative eigenvalues of the compressed
  /// operator per quadrature point (Sternheimer-comparable truncation);
  /// 0 = full compressed trace.
  std::size_t n_eig = 0;
  /// Rank-truncation knob: nip = round(c_nip * n_occ) when `nip` is 0.
  /// The compression error falls with c_nip; see DESIGN.md "Choosing a
  /// backend" for the accuracy/cost trade.
  double c_nip = 22.0;
  std::size_t nip = 0;        ///< explicit override (clamped to [1, n_d])
  std::size_t oversample = 4; ///< extra Gaussian sketch columns per side
  double ridge = 0.0;         ///< fit ridge (relative); 0 = only on breakdown
  /// Reference frequency for the virtual fit weights (fit.hpp); 0 = the
  /// smallest quadrature omega, where the response is strongest.
  double omega_ref = 0.0;
  std::uint64_t seed = 0x15df5eedULL;
  /// Cooperative cancel/preempt, polled at quadrature-point boundaries
  /// like the other drivers. Not owned.
  rpa::RunControl* control = nullptr;
};

/// The compression diagnostics of one ISDF run, returned beside its
/// rpa::RpaResult (obs::to_json takes both).
struct Compression {
  std::size_t nip = 0;    ///< points actually used (after rank stop)
  std::size_t n_eig = 0;  ///< eigenvalues kept per point (resolved)
  /// Selected grid-point indices in pivot order, and the |R_kk| decay of
  /// the selection QRCP (the compression-quality diagnostic).
  std::vector<std::size_t> points;
  std::vector<double> r_diag;
  double fit_ridge = 0.0;
};

/// Compute E_RPA via the compressed ISDF representation. `klap` must
/// discretize the same grid/radius as the system Hamiltonian. Each
/// point's record carries the kept compressed eigenvalues, and its
/// matvec_bytes/flops the modeled GEMM traffic of the compressed
/// evaluation, so the standard arithmetic-intensity telemetry applies
/// unchanged. `compression`, when given, receives the diagnostics.
rpa::RpaResult compute_rpa_energy_isdf(const dft::KsSystem& sys,
                                       const poisson::KroneckerLaplacian& klap,
                                       const IsdfRpaOptions& opts,
                                       Compression* compression = nullptr);

}  // namespace rsrpa::isdf
