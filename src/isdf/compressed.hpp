// The compressed nu^{1/2} chi0(i omega) nu^{1/2} object.
//
// With interpolation vectors Theta (n_d x nip) and sampled eigenvector
// rows, every pair product factorizes through the points, so
//
//   chi0(i omega) ~= Theta C(i omega) Theta^T,
//   C = -W W^T,  W(mu, (j,a)) = psi_j(p_mu) phi_a(p_mu) sd_{ja},
//   sd_{ja}^2 = 4 (lam_a - lam_j) / (((lam_j - lam_a)^2 + omega^2) dv),
//
// matching dense_chi0's operator convention exactly (dense_chi0 sums the
// same occupied-virtual pair products over the full grid).
// The symmetrized operator becomes M ~= Z C Z^T with Z = nu^{1/2} Theta
// (Kronecker spectral apply), whose nonzero spectrum equals that of the
// nip x nip matrix K = S^{1/2} C S^{1/2}, S = Z^T Z. S is frequency
// independent, so S^{1/2} is built once; each quadrature point then costs
// one symmetric rank-nov update (la::syrk_tn, the lower triangle of
// W W^T), two nip^3 GEMMs, and a nip^3 eigensolve — the cubic-scaling
// path of Lu & Thicke.
#pragma once

#include <cstddef>
#include <vector>

#include "common/timer.hpp"
#include "la/eig.hpp"
#include "la/matrix.hpp"
#include "poisson/kronecker.hpp"

namespace rsrpa::isdf {

/// Kernel-timer bucket names the compressed path reports under.
namespace kernels {
inline constexpr const char* kAssemble = "isdf_assemble";
inline constexpr const char* kEigensolve = "eigensolve";
}  // namespace kernels

class CompressedNuChi0 {
 public:
  /// `eig` is the full decomposition of H (lowest n_occ states occupied),
  /// `theta` the fitted interpolation vectors for `points`. Consumes
  /// `theta` (it is transformed into Z internally).
  CompressedNuChi0(const la::EigResult& eig, std::size_t n_occ,
                   const std::vector<std::size_t>& points,
                   la::Matrix<double> theta,
                   const poisson::KroneckerLaplacian& klap);

  /// The nip x nip coefficient matrix C(i omega) (exactly symmetric,
  /// negative semidefinite). Rank-k dominated: nip^2 * n_occ*n_vir flops.
  [[nodiscard]] la::Matrix<double> assemble(double omega) const;

  /// Ascending spectrum of the compressed nu^{1/2} chi0 nu^{1/2} (its
  /// nonzero part; zeros of the exact operator outside range(Z) are not
  /// represented). Timers, when given, split isdf_assemble / eigensolve.
  [[nodiscard]] std::vector<double> spectrum(double omega,
                                             KernelTimers* timers = nullptr) const;

  [[nodiscard]] std::size_t nip() const { return nip_; }
  [[nodiscard]] std::size_t n_pairs() const { return n_occ_ * n_vir_; }

  /// Modeled GEMM work/traffic for one spectrum() call (assembly +
  /// the two congruence GEMMs; streaming lower-bound byte model, same
  /// spirit as solver::ApplyCostModel). Feeds the PR-4 AI telemetry.
  [[nodiscard]] double flops_per_freq() const;
  [[nodiscard]] double bytes_per_freq() const;

 private:
  std::size_t n_occ_ = 0, n_vir_ = 0, nip_ = 0;
  double dv_ = 0.0;
  std::vector<double> values_;  ///< all eigenvalues of H, ascending
  la::Matrix<double> xo_t_;     ///< n_occ x nip sampled occupied rows
  la::Matrix<double> xv_t_;     ///< n_vir x nip sampled virtual rows
  la::Matrix<double> s_half_;   ///< (Z^T Z)^{1/2}
};

}  // namespace rsrpa::isdf
