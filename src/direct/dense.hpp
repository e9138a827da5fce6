// Dense direct machinery — the O(n_d^4)-class baseline the paper compares
// against (ABINIT-style direct RPA) and the reference oracle the tests
// validate the matrix-free path with.
//
// Everything here materializes n_d x n_d matrices, so it is only run on
// the reduced presets; that is the point — the direct approach is exactly
// what stops scaling.
#pragma once

#include "dft/ks_system.hpp"
#include "hamiltonian/hamiltonian.hpp"
#include "la/eig.hpp"
#include "poisson/kronecker.hpp"

namespace rsrpa::direct {

/// Materialize the Hamiltonian as a dense symmetric matrix (column by
/// column through the matrix-free apply).
la::Matrix<double> dense_hamiltonian(const ham::Hamiltonian& h);

/// Full eigendecomposition of H (all n_d eigenpairs) — the "occupied AND
/// unoccupied orbitals" requirement of direct approaches (paper SS I).
la::EigResult full_diagonalization(const ham::Hamiltonian& h);

/// Explicit Adler-Wiser construction (Eq. 2, real orbitals, imaginary
/// frequency): the dense polarizability OPERATOR matrix, i.e. including
/// the 1/dv quadrature factor so it matches Chi0Applier's convention.
/// `eig` must be the full decomposition of H; the lowest n_occ states are
/// occupied. Formed from the occupied-virtual pair products only, as
/// n_occ symmetric rank-n_vir updates (la::syrk_tn): n_occ n_vir n_d^2 / 2
/// mul-adds. The result is exactly symmetric.
la::Matrix<double> dense_chi0(const la::EigResult& eig, std::size_t n_occ,
                              double omega, double dv);

/// The symmetrized operator nu^{1/2} chi0 nu^{1/2} as a dense matrix.
la::Matrix<double> dense_nu_half_chi0_nu_half(
    const la::Matrix<double>& chi0, const poisson::KroneckerLaplacian& klap);

/// Full spectrum of nu chi0(i omega) (equal to the symmetrized operator's
/// spectrum), ascending — the exact curve of paper Fig. 1.
std::vector<double> nu_chi0_spectrum(const la::EigResult& eig,
                                     std::size_t n_occ, double omega,
                                     const poisson::KroneckerLaplacian& klap,
                                     double dv);

}  // namespace rsrpa::direct
