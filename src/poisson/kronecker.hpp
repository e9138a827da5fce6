// Kronecker-product spectral decomposition of the FD Laplacian.
//
// On a periodic separable grid the discrete Laplacian factors as
//
//   L = Lx (x) I (x) I + I (x) Ly (x) I + I (x) I (x) Lz
//
// with small dense symmetric 1D operators per axis. Diagonalizing each
// 1D operator (Lx = Qx Dx Qx^T etc.) diagonalizes L, so any spectral
// function f(L) is applied with three mode transforms, a pointwise scale,
// and three transforms back (refs [35], [36] of the paper). This is how
// the library applies the Coulomb operator nu = -4*pi*L^{-1} and its
// square root nu^{1/2} — the similarity transform of paper SS III-A —
// without parallel communication.
//
// The zero eigenvalue of the periodic Laplacian (the constant mode, G = 0
// in reciprocal-space language) is handled as a pseudo-inverse: f maps it
// to 0. This is the standard Gamma-point regularization of the Coulomb
// singularity and is consistent because chi0 annihilates constants.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "grid/grid.hpp"
#include "la/matrix.hpp"

namespace rsrpa::poisson {

class KroneckerLaplacian {
 public:
  KroneckerLaplacian(const grid::Grid3D& g, int radius);

  [[nodiscard]] const grid::Grid3D& grid() const { return grid_; }

  /// out = f(L) in, where f is evaluated on each eigenvalue of L.
  void apply_spectral(const std::function<double(double)>& f,
                      std::span<const double> in, std::span<double> out) const;

  /// out = nu in with nu = 4*pi*(-L)^{-1} (zero mode -> 0).
  void apply_nu(std::span<const double> in, std::span<double> out) const;
  /// out = nu^{1/2} in.
  void apply_nu_sqrt(std::span<const double> in, std::span<double> out) const;
  /// out = nu^{-1/2} in = sqrt(-L/(4*pi)) in (zero mode -> 0 naturally).
  void apply_nu_inv_sqrt(std::span<const double> in,
                         std::span<double> out) const;
  /// out = L in, evaluated spectrally (testing / cross-checks).
  void apply_laplacian(std::span<const double> in, std::span<double> out) const;

  /// In-place column-wise block applications (the shapes used by the RPA
  /// operator: V <- nu^{1/2} V on an n_d x n_eig block). Column ranges run
  /// on the global pool; each column gets exactly the arithmetic of the
  /// single-column apply, so the result is the same at every lane count.
  void apply_nu_sqrt_block(la::Matrix<double>& v) const;
  void apply_nu_block(la::Matrix<double>& v) const;
  void apply_nu_inv_sqrt_block(la::Matrix<double>& v) const;

  /// Solve the Poisson equation -L phi = 4*pi*rho (phi has zero mean).
  void solve_poisson(std::span<const double> rho, std::span<double> phi) const {
    apply_nu(rho, phi);
  }

  /// Extremes of the spectrum of -L (>= 0). Used for filter bounds.
  [[nodiscard]] double neg_laplacian_max() const { return neg_max_; }
  /// Smallest NONZERO eigenvalue of -L.
  [[nodiscard]] double neg_laplacian_min_nonzero() const { return neg_min_nz_; }

 private:
  /// f at every eigenvalue of L, in grid order.
  [[nodiscard]] std::vector<double> spectral_table(
      const std::function<double(double)>& f) const;
  /// out = Q diag(scale) Q^T in, with `work` as workspace; `in` is read
  /// before `out` is written, so the two may alias.
  void apply_scaled(const std::vector<double>& scale,
                    std::span<const double> in, std::span<double> out,
                    std::vector<double>& work) const;
  /// apply_scaled on every column of v, in place.
  void apply_scaled_block(const std::vector<double>& scale,
                          la::Matrix<double>& v) const;

  grid::Grid3D grid_;
  la::Matrix<double> qx_, qy_, qz_;
  std::vector<double> dx_, dy_, dz_;
  std::vector<double> nu_, nu_sqrt_, nu_inv_sqrt_;  ///< spectral_table of each
  double neg_max_ = 0.0, neg_min_nz_ = 0.0;
  double zero_tol_ = 0.0;
};

}  // namespace rsrpa::poisson
