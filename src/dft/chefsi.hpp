// Chebyshev-filtered subspace iteration (CheFSI) ground-state solver.
//
// Computes the lowest eigenpairs of the Kohn-Sham Hamiltonian — the
// occupied orbitals and energies the RPA stage consumes. This is the
// standard CheFSI of Zhou, Saad, Tiago & Chelikowsky (paper ref [34]):
// a degree-m scaled Chebyshev filter amplifies the wanted low end of the
// spectrum while damping [a, b] (a = top Ritz value of the current block,
// b = a rigorous upper bound of H), followed by orthonormalization and
// Rayleigh-Ritz. The paper applies the same filtering idea to the LINEAR
// eigenproblem of nu^{1/2} chi0 nu^{1/2}; that variant lives in src/rpa.
// Everything here is FP64: the paper takes its orbitals from a converged
// FP64 ground state, and PRECISION governs the Sternheimer solves only.
#pragma once

#include "common/rng.hpp"
#include "hamiltonian/hamiltonian.hpp"
#include "la/matrix.hpp"

namespace rsrpa::dft {

struct ChefsiOptions {
  int degree = 12;             ///< Chebyshev filter degree per iteration
  int max_iter = 60;
  double tol = 1e-8;           ///< max relative eigenpair residual
  std::size_t extra_states = 8;  ///< buffer states beyond the wanted count
};

struct GroundState {
  std::vector<double> eigenvalues;  ///< lowest n_states, ascending
  la::Matrix<double> orbitals;      ///< n_d x n_states, grid-l2-orthonormal
  int iterations = 0;
  double residual = 0.0;
  bool converged = false;
};

/// Apply the scaled Chebyshev filter p_m(H) to the block V in place,
/// damping the interval [a, b]; a0 is a lower estimate of the full
/// spectrum used for the stable scaling. Exposed for reuse by tests and
/// by the RPA subspace iteration.
void chebyshev_filter(const ham::Hamiltonian& h, la::Matrix<double>& v,
                      int degree, double a, double b, double a0);

/// Solve for the lowest `n_states` eigenpairs of H.
GroundState solve_ground_state(const ham::Hamiltonian& h, std::size_t n_states,
                               const ChefsiOptions& opts, Rng& rng);

}  // namespace rsrpa::dft
