// The symmetrized dielectric-like operator nu^{1/2} chi0(i omega) nu^{1/2}.
//
// nu chi0 is non-Hermitian, but the similarity transform of paper SS III-A
// produces a real symmetric operator with the same spectrum, turning the
// subspace-iteration projected problem into a generalized SYMMETRIC one.
// Algorithm 7: V <- nu^{1/2} V (spectral, communication-free), Sternheimer
// solves for chi0, V <- nu^{1/2} V again. The per-kernel timers feed the
// Fig. 5 breakdown.
#pragma once

#include "common/timer.hpp"
#include "poisson/kronecker.hpp"
#include "rpa/chi0.hpp"

namespace rsrpa::rpa {

/// Names of the timing buckets used throughout the RPA stage (Fig. 5).
namespace kernels {
inline constexpr const char* kNuChi0 = "nu_chi0_apply";
inline constexpr const char* kMatmult = "matmult";
inline constexpr const char* kEigensolve = "eigensolve";
inline constexpr const char* kEvalError = "eval_error";
/// The dense backends' one-time full diagonalization of H.
inline constexpr const char* kDiagonalize = "diagonalization";
}  // namespace kernels

class NuChi0Operator {
 public:
  NuChi0Operator(const dft::KsSystem& sys,
                 const poisson::KroneckerLaplacian& klap,
                 SternheimerOptions stern_opts)
      : chi0_(sys, stern_opts), klap_(klap) {}

  /// out = nu^{1/2} chi0(i omega) nu^{1/2} in (Algorithm 7). `events`
  /// optionally overrides the options-level event sink for this call
  /// (the per-slice logs of a column-sliced apply hook; see
  /// Chi0Applier::apply).
  void apply(const la::Matrix<double>& in, la::Matrix<double>& out,
             double omega, SternheimerStats* stats = nullptr,
             KernelTimers* timers = nullptr,
             obs::EventLog* events = nullptr) const;

  [[nodiscard]] const Chi0Applier& chi0() const { return chi0_; }
  Chi0Applier& chi0() { return chi0_; }
  [[nodiscard]] const poisson::KroneckerLaplacian& nu() const { return klap_; }
  [[nodiscard]] std::size_t n_grid() const { return chi0_.system().n_grid(); }

 private:
  Chi0Applier chi0_;
  const poisson::KroneckerLaplacian& klap_;
};

}  // namespace rsrpa::rpa
