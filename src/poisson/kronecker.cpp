#include "poisson/kronecker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "grid/fd.hpp"
#include "la/eig.hpp"
#include "sched/parallel_for.hpp"

namespace rsrpa::poisson {

namespace {

// Smallest mode-transform work worth one sched task in a block apply.
constexpr double kMinFlopsPerTask = 2.5e5;

// Dense periodic 1D FD Laplacian of radius r on n points with spacing h.
la::Matrix<double> laplacian_1d(std::size_t n, double h, int radius) {
  const std::vector<double> c = grid::fd_coefficients(radius);
  la::Matrix<double> l(n, n);
  const double ih2 = 1.0 / (h * h);
  const long nn = static_cast<long>(n);
  for (long i = 0; i < nn; ++i) {
    for (long k = -radius; k <= radius; ++k) {
      const long j = ((i + k) % nn + nn) % nn;
      l(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) +=
          c[static_cast<std::size_t>(std::abs(k))] * ih2;
    }
  }
  return l;
}

// --- Mode transforms ----------------------------------------------------
// The grid function v uses index ix + nx*(iy + ny*iz). Each transform
// contracts one mode with Q or Q^T and streams the x-fastest layout.

void mode_x(const la::Matrix<double>& q, bool transpose,
            std::span<const double> in, std::span<double> out,
            std::size_t nx, std::size_t nyz) {
  // out[jx, c] = sum_ix Qhat(ix, jx) in[ix, c], Qhat = Q if transpose (Q^T
  // from the left) else Q^T... concretely: transpose=true applies Q^T.
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t c = 0; c < nyz; ++c) {
    const double* vin = in.data() + c * nx;
    double* vout = out.data() + c * nx;
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double v = vin[ix];
      if (transpose) {
        // vout[jx] += Q(ix, jx) * v  — row ix of Q
        for (std::size_t jx = 0; jx < nx; ++jx) vout[jx] += q(ix, jx) * v;
      } else {
        // vout[jx] += Q(jx, ix) * v — column ix of Q (contiguous)
        const double* qcol = &q(0, ix);
        for (std::size_t jx = 0; jx < nx; ++jx) vout[jx] += qcol[jx] * v;
      }
    }
  }
}

void mode_y(const la::Matrix<double>& q, bool transpose,
            std::span<const double> in, std::span<double> out, std::size_t nx,
            std::size_t ny, std::size_t nz) {
  // transpose=true: out[ix, jy, iz] = sum_iy Q(iy, jy) in[ix, iy, iz]
  // transpose=false: out[ix, jy, iz] = sum_iy Q(jy, iy) in[ix, iy, iz]
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    const std::size_t zoff = nx * ny * iz;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double* vin = in.data() + zoff + nx * iy;
      for (std::size_t jy = 0; jy < ny; ++jy) {
        const double qv = transpose ? q(iy, jy) : q(jy, iy);
        if (qv == 0.0) continue;
        double* vout = out.data() + zoff + nx * jy;
        for (std::size_t ix = 0; ix < nx; ++ix) vout[ix] += qv * vin[ix];
      }
    }
  }
}

void mode_z(const la::Matrix<double>& q, bool transpose,
            std::span<const double> in, std::span<double> out, std::size_t nxy,
            std::size_t nz) {
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    const double* vin = in.data() + nxy * iz;
    for (std::size_t jz = 0; jz < nz; ++jz) {
      const double qv = transpose ? q(iz, jz) : q(jz, iz);
      if (qv == 0.0) continue;
      double* vout = out.data() + nxy * jz;
      for (std::size_t i = 0; i < nxy; ++i) vout[i] += qv * vin[i];
    }
  }
}

}  // namespace

KroneckerLaplacian::KroneckerLaplacian(const grid::Grid3D& g, int radius)
    : grid_(g) {
  la::EigResult ex = la::sym_eig(laplacian_1d(g.nx(), g.hx(), radius));
  la::EigResult ey = la::sym_eig(laplacian_1d(g.ny(), g.hy(), radius));
  la::EigResult ez = la::sym_eig(laplacian_1d(g.nz(), g.hz(), radius));
  qx_ = std::move(ex.vectors);
  qy_ = std::move(ey.vectors);
  qz_ = std::move(ez.vectors);
  dx_ = std::move(ex.values);
  dy_ = std::move(ey.values);
  dz_ = std::move(ez.values);

  double lam_min = 0.0;  // most negative eigenvalue of L
  double nz_min = std::numeric_limits<double>::max();
  const double scale = std::abs(dx_.front()) + std::abs(dy_.front()) +
                       std::abs(dz_.front());
  zero_tol_ = 1e-10 * std::max(scale, 1.0);
  for (double a : dx_)
    for (double b : dy_)
      for (double c : dz_) {
        const double lam = a + b + c;
        lam_min = std::min(lam_min, lam);
        if (-lam > zero_tol_) nz_min = std::min(nz_min, -lam);
      }
  neg_max_ = -lam_min;
  neg_min_nz_ = nz_min;

  const double tol = zero_tol_;
  nu_ = spectral_table([tol](double lam) {
    return -lam > tol ? 4.0 * M_PI / (-lam) : 0.0;
  });
  nu_sqrt_ = spectral_table([tol](double lam) {
    return -lam > tol ? std::sqrt(4.0 * M_PI / (-lam)) : 0.0;
  });
  nu_inv_sqrt_ = spectral_table([tol](double lam) {
    return -lam > tol ? std::sqrt(-lam / (4.0 * M_PI)) : 0.0;
  });
}

std::vector<double> KroneckerLaplacian::spectral_table(
    const std::function<double(double)>& f) const {
  const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  std::vector<double> scale(grid_.size());
  for (std::size_t iz = 0; iz < nz; ++iz)
    for (std::size_t iy = 0; iy < ny; ++iy)
      for (std::size_t ix = 0; ix < nx; ++ix)
        scale[grid_.index(ix, iy, iz)] = f(dx_[ix] + dy_[iy] + dz_[iz]);
  return scale;
}

void KroneckerLaplacian::apply_scaled(const std::vector<double>& scale,
                                      std::span<const double> in,
                                      std::span<double> out,
                                      std::vector<double>& work) const {
  RSRPA_REQUIRE(in.size() == grid_.size() && out.size() == grid_.size());
  const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const std::size_t n = grid_.size();
  work.resize(3 * n);
  const std::span<double> t1(work.data(), n), t2(work.data() + n, n),
      hat(work.data() + 2 * n, n);
  // Forward transforms (Q^T per mode); `in` is read only here.
  mode_x(qx_, /*transpose=*/true, in, t1, nx, ny * nz);
  mode_y(qy_, /*transpose=*/true, t1, t2, nx, ny, nz);
  mode_z(qz_, /*transpose=*/true, t2, hat, nx * ny, nz);
  for (std::size_t i = 0; i < n; ++i) hat[i] *= scale[i];
  // Backward transforms (Q per mode); `out` is written only here.
  mode_z(qz_, /*transpose=*/false, hat, t1, nx * ny, nz);
  mode_y(qy_, /*transpose=*/false, t1, t2, nx, ny, nz);
  mode_x(qx_, /*transpose=*/false, t2, out, nx, ny * nz);
}

void KroneckerLaplacian::apply_scaled_block(const std::vector<double>& scale,
                                            la::Matrix<double>& v) const {
  // Columns are independent: contiguous column ranges go to the lanes,
  // none smaller than kMinFlopsPerTask of mode transforms.
  const double col_flops = 4.0 * static_cast<double>(grid_.size()) *
                           static_cast<double>(grid_.nx() + grid_.ny() +
                                               grid_.nz());
  const auto min_cols =
      static_cast<std::size_t>(std::ceil(kMinFlopsPerTask / col_flops));
  const auto lanes = static_cast<std::size_t>(sched::global_pool().threads());
  const std::size_t grain =
      std::max(min_cols, (v.cols() + lanes - 1) / lanes);
  sched::parallel_for_range(0, v.cols(), grain,
                            [&](std::size_t jb, std::size_t je) {
                              std::vector<double> work;
                              for (std::size_t j = jb; j < je; ++j)
                                apply_scaled(scale, v.col(j), v.col(j), work);
                            });
}

void KroneckerLaplacian::apply_spectral(const std::function<double(double)>& f,
                                        std::span<const double> in,
                                        std::span<double> out) const {
  std::vector<double> work;
  apply_scaled(spectral_table(f), in, out, work);
}

void KroneckerLaplacian::apply_nu(std::span<const double> in,
                                  std::span<double> out) const {
  std::vector<double> work;
  apply_scaled(nu_, in, out, work);
}

void KroneckerLaplacian::apply_nu_sqrt(std::span<const double> in,
                                       std::span<double> out) const {
  std::vector<double> work;
  apply_scaled(nu_sqrt_, in, out, work);
}

void KroneckerLaplacian::apply_nu_inv_sqrt(std::span<const double> in,
                                           std::span<double> out) const {
  std::vector<double> work;
  apply_scaled(nu_inv_sqrt_, in, out, work);
}

void KroneckerLaplacian::apply_laplacian(std::span<const double> in,
                                         std::span<double> out) const {
  apply_spectral([](double lam) { return lam; }, in, out);
}

void KroneckerLaplacian::apply_nu_sqrt_block(la::Matrix<double>& v) const {
  apply_scaled_block(nu_sqrt_, v);
}

void KroneckerLaplacian::apply_nu_block(la::Matrix<double>& v) const {
  apply_scaled_block(nu_, v);
}

void KroneckerLaplacian::apply_nu_inv_sqrt_block(la::Matrix<double>& v) const {
  apply_scaled_block(nu_inv_sqrt_, v);
}

}  // namespace rsrpa::poisson
