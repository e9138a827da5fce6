// Tests for the direct (dense) baseline: dense Hamiltonian, full
// diagonalization, Adler-Wiser chi0, spectrum, and the direct E_RPA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "direct/direct_rpa.hpp"
#include "isdf/erpa_isdf.hpp"
#include "la/blas.hpp"
#include "rpa/presets.hpp"
#include "sched/thread_pool.hpp"

namespace rsrpa::direct {
namespace {

rpa::BuiltSystem& tiny_system() {
  static rpa::BuiltSystem built = [] {
    rpa::SystemPreset p = rpa::make_si_preset(1, false);
    p.grid_per_cell = 7;
    p.fd_radius = 3;
    return rpa::build_system(p);
  }();
  return built;
}

TEST(DenseHamiltonian, SymmetricAndMatchesApply) {
  auto& b = tiny_system();
  la::Matrix<double> dense = dense_hamiltonian(*b.h);
  const std::size_t n = dense.rows();
  for (std::size_t j = 0; j < n; j += 37)
    for (std::size_t i = 0; i < n; i += 41)
      EXPECT_NEAR(dense(i, j), dense(j, i), 1e-11);

  Rng rng(1);
  std::vector<double> v(n), hv(n);
  rng.fill_uniform(v);
  b.h->apply<double>(v, hv);
  la::Matrix<double> vm(n, 1), ref(n, 1);
  std::copy(v.begin(), v.end(), vm.col(0).begin());
  la::gemm_nn(1.0, dense, vm, 0.0, ref);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(hv[i], ref(i, 0), 1e-10);
}

TEST(FullDiagonalization, LowestStatesMatchChefsi) {
  auto& b = tiny_system();
  la::EigResult eig = full_diagonalization(*b.h);
  // CheFSI eigenvalues from the KsSystem agree with the dense solver.
  for (std::size_t j = 0; j < b.ks.n_occ(); ++j)
    EXPECT_NEAR(eig.values[j], b.ks.eigenvalues[j], 1e-7) << j;
  // HOMO-LUMO gap consistent.
  EXPECT_NEAR(eig.values[b.ks.n_occ()], b.ks.lumo, 1e-7);
}

// Oracle for dense_chi0: the resolvent over all states, chi0 = sum_j D_j
// G_j D_j / dv with D_j = diag(psi_j) and G_j = Q diag(4 (lam_j - lam_a) /
// ((lam_j - lam_a)^2 + w^2)) Q^T over ALL states a. The occupied-occupied
// terms cancel pairwise inside the j sum, so it is the same operator
// formed another way, with one n_d^3 GEMM per occupied orbital.
la::Matrix<double> resolvent_chi0(const la::EigResult& eig, std::size_t n_occ,
                                  double omega, double dv) {
  const std::size_t n = eig.values.size();
  const la::Matrix<double>& q = eig.vectors;
  const la::Matrix<double> qt = q.transposed();
  la::Matrix<double> chi0(n, n), scaled(n, n), g(n, n);
  for (std::size_t j = 0; j < n_occ; ++j) {
    for (std::size_t a = 0; a < n; ++a) {
      const double d = eig.values[j] - eig.values[a];
      const double f = 4.0 * d / (d * d + omega * omega);
      for (std::size_t i = 0; i < n; ++i) scaled(i, a) = q(i, a) * f;
    }
    la::gemm_nn(1.0, scaled, qt, 0.0, g);
    for (std::size_t c = 0; c < n; ++c)
      for (std::size_t i = 0; i < n; ++i)
        chi0(i, c) += q(i, j) * g(i, c) * q(c, j);
  }
  for (std::size_t i = 0; i < chi0.size(); ++i) chi0.data()[i] /= dv;
  return chi0;
}

// max |x - y| over max |y|.
double max_rel_diff(const la::Matrix<double>& x, const la::Matrix<double>& y) {
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(x.data()[i] - y.data()[i]));
    scale = std::max(scale, std::abs(y.data()[i]));
  }
  return diff / scale;
}

TEST(DenseChi0, PairProductsMatchResolventOverAllStates) {
  auto& b = tiny_system();
  const la::EigResult eig = full_diagonalization(*b.h);
  const double dv = b.h->grid().dv();
  for (double omega : {0.02, 0.69, 8.836}) {
    const la::Matrix<double> chi0 = dense_chi0(eig, b.ks.n_occ(), omega, dv);
    const la::Matrix<double> ref = resolvent_chi0(eig, b.ks.n_occ(), omega, dv);
    EXPECT_LE(max_rel_diff(chi0, ref), 1e-13) << "omega=" << omega;
    for (std::size_t j = 0; j < chi0.cols(); ++j)
      for (std::size_t i = 0; i < j; ++i)
        ASSERT_EQ(chi0(i, j), chi0(j, i)) << "omega=" << omega;
  }
}

TEST(DenseChi0, MatchesExplicitAdlerWiserSum) {
  // Synthetic spectral data: dense_chi0 and the resolvent construction
  // both equal the occupied-unoccupied pair sum written out term by term.
  Rng rng(2);
  const std::size_t n = 30, n_occ = 5;
  la::Matrix<double> m(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const double v = rng.uniform(-1, 1);
      m(i, j) = v;
      m(j, i) = v;
    }
  la::EigResult eig = la::sym_eig(m);
  const double omega = 0.37, dv = 1.0;
  la::Matrix<double> chi0 = dense_chi0(eig, n_occ, omega, dv);

  la::Matrix<double> ref(n, n);
  for (std::size_t j = 0; j < n_occ; ++j)
    for (std::size_t a = n_occ; a < n; ++a) {
      const double d = eig.values[j] - eig.values[a];
      const double f = 4.0 * d / (d * d + omega * omega);
      for (std::size_t c = 0; c < n; ++c) {
        const double pc = eig.vectors(c, j) * eig.vectors(c, a);
        for (std::size_t i = 0; i < n; ++i)
          ref(i, c) += f * eig.vectors(i, j) * eig.vectors(i, a) * pc;
      }
    }
  const la::Matrix<double> resolvent = resolvent_chi0(eig, n_occ, omega, dv);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(chi0(i, c), ref(i, c), 1e-10);
      EXPECT_NEAR(resolvent(i, c), ref(i, c), 1e-10);
    }
  EXPECT_LE(max_rel_diff(chi0, resolvent), 1e-13);
}

TEST(DenseChi0, NegativeSemidefiniteSymmetricAnnihilatesConstants) {
  auto& b = tiny_system();
  la::EigResult eig = full_diagonalization(*b.h);
  la::Matrix<double> chi0 =
      dense_chi0(eig, b.ks.n_occ(), 0.69, b.h->grid().dv());
  const std::size_t n = chi0.rows();
  // Symmetry (sampled).
  for (std::size_t j = 0; j < n; j += 29)
    for (std::size_t i = 0; i < n; i += 31)
      EXPECT_NEAR(chi0(i, j), chi0(j, i), 1e-8);
  // Row sums vanish: chi0 * 1 = 0 by orbital orthogonality.
  for (std::size_t i = 0; i < n; i += 17) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += chi0(i, j);
    EXPECT_NEAR(row, 0.0, 1e-7);
  }
  // Negative semidefinite: eigenvalues <= 0.
  std::vector<double> vals = la::sym_eigvals(chi0);
  EXPECT_LE(vals.back(), 1e-8);
}

TEST(NuChi0Spectrum, DecaysRapidlyAndIsNegative) {
  // The Fig. 1 property: eigenvalues of nu chi0 are negative and decay
  // toward zero by orders of magnitude across the spectrum.
  auto& b = tiny_system();
  la::EigResult eig = full_diagonalization(*b.h);
  for (double omega : {8.836, 0.69, 0.02}) {
    std::vector<double> spec = nu_chi0_spectrum(eig, b.ks.n_occ(), omega,
                                                *b.klap, b.h->grid().dv());
    EXPECT_LE(spec.back(), 1e-10);  // all <= 0
    // Decay toward zero across the spectrum. On this 343-point toy grid
    // the dielectric spectrum is less compressible than the paper's
    // 3375-point silicon, so the thresholds are calibrated to the model:
    // roughly one order of magnitude by mid-spectrum, two by 3/4.
    EXPECT_LT(std::abs(spec[128]), 0.20 * std::abs(spec[0]));
    EXPECT_LT(std::abs(spec[256]), 0.10 * std::abs(spec[0]));
  }
}

TEST(NuChi0Spectrum, WholeSpectrumShrinksAtLargeOmega) {
  auto& b = tiny_system();
  la::EigResult eig = full_diagonalization(*b.h);
  std::vector<double> lo = nu_chi0_spectrum(eig, b.ks.n_occ(), 0.113, *b.klap,
                                            b.h->grid().dv());
  std::vector<double> hi = nu_chi0_spectrum(eig, b.ks.n_occ(), 49.36, *b.klap,
                                            b.h->grid().dv());
  EXPECT_LT(std::abs(hi[0]), 0.1 * std::abs(lo[0]));
}

TEST(DirectRpa, ProducesNegativeEnergyWithTimings) {
  auto& b = tiny_system();
  rpa::RpaResult res = compute_direct_rpa(*b.h, b.ks.n_occ(), *b.klap, 8);
  EXPECT_EQ(res.method, rpa::methods::kDirect);
  EXPECT_LT(res.e_rpa, 0.0);
  EXPECT_LT(res.e_rpa_per_atom, 0.0);
  EXPECT_GT(res.e_rpa_per_atom, -1.0);  // sane magnitude (Ha/atom)
  ASSERT_EQ(res.per_omega.size(), 8u);
  // Each record keeps the full spectrum (the Fig. 1 data).
  for (const rpa::OmegaRecord& rec : res.per_omega)
    EXPECT_EQ(rec.eigenvalues.size(), b.h->grid().size());
  EXPECT_GT(res.timers.get(rpa::kernels::kDiagonalize), 0.0);
  // Every term is negative; magnitudes are small at the largest omega.
  for (const rpa::OmegaRecord& rec : res.per_omega) EXPECT_LT(rec.e_term, 0.0);
  EXPECT_LT(std::abs(res.per_omega.front().e_term),
            std::abs(res.per_omega[4].e_term));
}

TEST(DirectRpa, DirectAndIsdfEnergiesBitwiseEqualAtOneAndFourLanes) {
  auto& b = tiny_system();
  isdf::IsdfRpaOptions iopts;
  iopts.ell = 3;
  rpa::RpaResult direct[2], compressed[2];
  const int lanes[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    sched::set_global_threads(lanes[t]);
    direct[t] = compute_direct_rpa(*b.h, b.ks.n_occ(), *b.klap, 3);
    compressed[t] = isdf::compute_rpa_energy_isdf(b.ks, *b.klap, iopts);
  }
  sched::set_global_threads(0);
  EXPECT_EQ(direct[0].e_rpa, direct[1].e_rpa);
  EXPECT_EQ(compressed[0].e_rpa, compressed[1].e_rpa);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(direct[0].per_omega[k].eigenvalues,
              direct[1].per_omega[k].eigenvalues);
    EXPECT_EQ(compressed[0].per_omega[k].eigenvalues,
              compressed[1].per_omega[k].eigenvalues);
  }
}

}  // namespace
}  // namespace rsrpa::direct
