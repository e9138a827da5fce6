#include "direct/dense.hpp"

#include <algorithm>
#include <cmath>

#include "la/blas.hpp"
#include "sched/parallel_for.hpp"

namespace rsrpa::direct {

la::Matrix<double> dense_hamiltonian(const ham::Hamiltonian& h) {
  const std::size_t n = h.grid().size();
  la::Matrix<double> dense(n, n);
  std::vector<double> e(n, 0.0), col(n);
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    h.apply<double>(e, col);
    e[j] = 0.0;
    for (std::size_t i = 0; i < n; ++i) dense(i, j) = col[i];
  }
  return dense;
}

la::EigResult full_diagonalization(const ham::Hamiltonian& h) {
  return la::sym_eig(dense_hamiltonian(h));
}

la::Matrix<double> dense_chi0(const la::EigResult& eig, std::size_t n_occ,
                              double omega, double dv) {
  const std::size_t n = eig.values.size();
  RSRPA_REQUIRE(n_occ >= 1 && n_occ < n && omega > 0.0);
  const std::size_t n_vir = n - n_occ;

  // chi0 = -sum_j W_j^T W_j over the occupied j, one symmetric rank-n_vir
  // update each, with the occupied-virtual pair products
  //   W_j(a, i) = psi_j(i) psi_a(i) s_ja,
  //   s_ja^2 = -4 (lam_j - lam_a) / (((lam_j - lam_a)^2 + w^2) dv) >= 0,
  // the Adler-Wiser sum of Eq. (2) in the operator convention (1/dv).
  // Occupied-occupied pairs cancel in that sum and are never formed.
  la::Matrix<double> qt_vir(n_vir, n);  // qt_vir(a, i) = psi_{n_occ + a}(i)
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t a = 0; a < n_vir; ++a)
      qt_vir(a, i) = eig.vectors(i, n_occ + a);
  la::Matrix<double> chi0(n, n), w(n_vir, n);
  std::vector<double> s(n_vir);
  for (std::size_t j = 0; j < n_occ; ++j) {
    const double lam_j = eig.values[j];
    for (std::size_t a = 0; a < n_vir; ++a) {
      const double d = lam_j - eig.values[n_occ + a];
      s[a] = std::sqrt(
          std::max(-4.0 * d / ((d * d + omega * omega) * dv), 0.0));
    }
    const double* psi = &eig.vectors(0, j);
    sched::parallel_for_range(0, n, 64, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const double* q = &qt_vir(0, i);
        double* wi = &w(0, i);
        for (std::size_t a = 0; a < n_vir; ++a) wi[a] = psi[i] * q[a] * s[a];
      }
    });
    la::syrk_tn(-1.0, w, 1.0, chi0);
  }
  return chi0;
}

la::Matrix<double> dense_nu_half_chi0_nu_half(
    const la::Matrix<double>& chi0, const poisson::KroneckerLaplacian& klap) {
  const std::size_t n = chi0.rows();
  RSRPA_REQUIRE(chi0.cols() == n && klap.grid().size() == n);
  la::Matrix<double> m = chi0;
  klap.apply_nu_sqrt_block(m);  // columns: nu^{1/2} chi0
  m = m.transposed();
  klap.apply_nu_sqrt_block(m);  // rows (via transpose): ... nu^{1/2}
  // Result is symmetric up to roundoff; symmetrize for the eigensolver.
  for (std::size_t jc = 0; jc < n; ++jc)
    for (std::size_t i = 0; i < jc; ++i) {
      const double avg = 0.5 * (m(i, jc) + m(jc, i));
      m(i, jc) = avg;
      m(jc, i) = avg;
    }
  return m;
}

std::vector<double> nu_chi0_spectrum(const la::EigResult& eig,
                                     std::size_t n_occ, double omega,
                                     const poisson::KroneckerLaplacian& klap,
                                     double dv) {
  la::Matrix<double> chi0 = dense_chi0(eig, n_occ, omega, dv);
  la::Matrix<double> m = dense_nu_half_chi0_nu_half(chi0, klap);
  return la::sym_eigvals(m);
}

}  // namespace rsrpa::direct
