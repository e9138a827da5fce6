// Direct evaluation of the RPA correlation energy — the quartic-scaling
// baseline (explicit chi0 + dense trace) used for experiment E8 and as
// the high-accuracy oracle for the iterative formulation.
#pragma once

#include "direct/dense.hpp"
#include "rpa/erpa.hpp"
#include "rpa/quadrature.hpp"

namespace rsrpa::direct {

/// Compute E_RPA by full diagonalization + explicit Adler-Wiser chi0 at
/// each of `ell` quadrature points. Each point's record holds the
/// eigenvalues entering its trace (the full nu chi0 spectrum, ascending:
/// the Fig. 1 data); the diagonalization is charged to
/// timers[rpa::kernels::kDiagonalize]. `n_keep` truncates the trace to
/// the n_keep most negative eigenvalues per point (0 = full trace) — the
/// apples-to-apples comparison against the subspace drivers at the same
/// N_NUCHI_EIGS. `control` is the standard cooperative cancel/preempt
/// hook, polled at quadrature-point boundaries.
rpa::RpaResult compute_direct_rpa(const ham::Hamiltonian& h, std::size_t n_occ,
                                  const poisson::KroneckerLaplacian& klap,
                                  int ell, std::size_t n_keep = 0,
                                  const rpa::RunControl* control = nullptr);

}  // namespace rsrpa::direct
