// The Kohn-Sham Hamiltonian H = -1/2 Laplacian + V_loc + X Gamma X^H.
//
// This is the coefficient operator of everything downstream: the ground
// state eigenproblem (CheFSI), and the complex-shifted Sternheimer systems
// (H - lambda_j I + i omega_k I) whose complex-symmetric structure drives
// the paper's block COCG solver. The Laplacian is matrix-free (stencil),
// the local potential diagonal, and the nonlocal part a sparse low-rank
// outer product — the exact structure paper SS III-B describes.
//
// Hot-path schedule (paper SS III-C): each column is ONE
// fused memory sweep computing alpha Lap(in) + (V_loc + shift) . in via
// grid::StencilLaplacian::apply_fused, followed by a single gather-GEMM
// nonlocal block update over all columns. This is the only schedule a run
// uses; the seed multi-sweep per-column apply_reference is kept public as
// the correctness oracle for tests and the A1 ablation.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "grid/stencil.hpp"
#include "hamiltonian/crystal.hpp"
#include "hamiltonian/nonlocal.hpp"
#include "hamiltonian/potential.hpp"
#include "la/matrix.hpp"

namespace rsrpa::ham {

using la::cplx;

class Hamiltonian {
 public:
  /// Construct with the model pseudopotential evaluated from `crystal`.
  Hamiltonian(const grid::Grid3D& g, int fd_radius, Crystal crystal,
              ModelParams params);

  [[nodiscard]] const grid::Grid3D& grid() const { return lap_.grid(); }
  [[nodiscard]] const grid::StencilLaplacian& laplacian() const { return lap_; }
  [[nodiscard]] const Crystal& crystal() const { return crystal_; }
  [[nodiscard]] const ModelParams& params() const { return params_; }
  [[nodiscard]] const NonlocalProjectors& nonlocal() const { return nonlocal_; }

  [[nodiscard]] const std::vector<double>& local_potential() const {
    return v_loc_;
  }
  /// Replace the local potential (the SCF loop updates V_eff in place).
  void set_local_potential(std::vector<double> v);

  /// Vectorized stencil-row kernels for this operator (default
  /// RSRPA_SIMD at construction; bitwise-identical to the scalar
  /// fallback; no-op when compiled without -DRSRPA_SIMD=ON).
  void set_simd(bool on) { lap_.set_simd(on); }
  [[nodiscard]] bool simd() const { return lap_.simd(); }

  /// out = H in.
  template <typename T>
  void apply(std::span<const T> in, std::span<T> out) const {
    require_spans(in, out);
    apply_unchecked<T>(in, out, T{});
  }

  /// Column-at-a-time block apply (paper SS III-C schedule): one fused
  /// sweep per column, then one nonlocal gather-GEMM over the block.
  template <typename T>
  void apply_block(const la::Matrix<T>& in, la::Matrix<T>& out) const {
    RSRPA_REQUIRE(in.rows() == grid().size() && out.rows() == in.rows() &&
                  out.cols() == in.cols());
    for (std::size_t j = 0; j < in.cols(); ++j)
      fused_sweep<T>(in.col(j), out.col(j), T{});
    nonlocal_.apply_add_block<T>(in, out);
  }

  /// out = (H - lambda I + i omega I) in — the Sternheimer coefficient
  /// operator A_{j,k}, complex symmetric because H is real symmetric.
  void apply_shifted(std::span<const cplx> in, std::span<cplx> out,
                     double lambda, double omega) const {
    require_spans(in, out);
    apply_unchecked<cplx>(in, out, cplx{-lambda, omega});
  }

  void apply_shifted_block(const la::Matrix<cplx>& in, la::Matrix<cplx>& out,
                           double lambda, double omega) const {
    apply_shifted_block_impl<cplx>(in, out, cplx{-lambda, omega});
  }

  /// FP32 variant — the inner kernel of the mixed-precision Sternheimer
  /// solvers. Same schedule as the cplx overload: float stencil
  /// coefficients, float local potential copy, float nonlocal scaling.
  void apply_shifted_block(const la::Matrix<la::cplxf>& in,
                           la::Matrix<la::cplxf>& out, double lambda,
                           double omega) const {
    apply_shifted_block_impl<la::cplxf>(
        in, out,
        la::cplxf{static_cast<float>(-lambda), static_cast<float>(omega)});
  }

  /// Fused Chebyshev three-term step:
  ///   out = c1 * (H in) + c0 * in + c2 * extra      (extra may be null).
  /// The polynomial scalars fold into the per-column sweep (alpha =
  /// -0.5 c1, local potential scaled by c1, shift c0, extra term c2) and
  /// the nonlocal gather-GEMM carries the c1 scale — still one sweep per
  /// column plus the block nonlocal update.
  template <typename T>
  void apply_poly_block(const la::Matrix<T>& in, la::Matrix<T>& out, double c1,
                        double c0, const la::Matrix<T>* extra,
                        double c2) const {
    RSRPA_REQUIRE(in.rows() == grid().size() && out.rows() == in.rows() &&
                  out.cols() == in.cols());
    RSRPA_REQUIRE(extra == nullptr || (extra->rows() == in.rows() &&
                                       extra->cols() == in.cols()));
    for (std::size_t j = 0; j < in.cols(); ++j) {
      grid::FusedTerms<T> t;
      t.alpha = static_cast<la::real_t<T>>(-0.5 * c1);
      t.vdiag = local_potential_as<T>();
      t.beta = static_cast<la::real_t<T>>(c1);
      t.shift = static_cast<T>(c0);
      if (extra != nullptr) {
        t.extra = extra->col(j).data();
        t.eta = static_cast<T>(c2);
      }
      lap_.apply_fused<T>(in.col(j), out.col(j), t);
    }
    nonlocal_.apply_add_block<T>(in, out, c1);
  }

  /// out = H in by the seed schedule: stencil sweep, then the -1/2 scale
  /// + V_loc sweep, then the per-column nonlocal scatter/gather — three
  /// passes over memory per column (four with a caller's shift sweep).
  /// Correctness oracle for tests and the A1 ablation baseline; no run
  /// option selects it.
  template <typename T>
  void apply_reference(std::span<const T> in, std::span<T> out) const {
    require_spans(in, out);
    lap_.apply_reference<T>(in, out);
    const std::size_t n = in.size();
    for (std::size_t i = 0; i < n; ++i)
      out[i] = static_cast<T>(-0.5) * out[i] + static_cast<T>(v_loc_[i]) * in[i];
    nonlocal_.apply_add<T>(in, out);
  }

  /// Rigorous spectral bounds: kinetic term in [0, -0.5*lap_min], local
  /// potential in [min V, max V], nonlocal PSD with exact norm.
  [[nodiscard]] double upper_bound() const { return upper_bound_; }
  [[nodiscard]] double lower_bound() const { return lower_bound_; }

 private:
  template <typename T>
  void require_spans(std::span<const T> in, std::span<T> out) const {
    RSRPA_REQUIRE(in.size() == grid().size() && out.size() == in.size());
    const auto lo_in = reinterpret_cast<std::uintptr_t>(in.data());
    const auto lo_out = reinterpret_cast<std::uintptr_t>(out.data());
    const std::uintptr_t bytes = in.size() * sizeof(T);
    RSRPA_REQUIRE_MSG(
        lo_in + bytes <= lo_out || lo_out + bytes <= lo_in,
        "Hamiltonian::apply: in/out must not alias (the fused kernel reads "
        "in after writing out)");
  }

  /// Local potential at the working precision of T: the double table for
  /// double/cplx sweeps, the float copy for FP32 sweeps.
  template <typename T>
  [[nodiscard]] const la::real_t<T>* local_potential_as() const {
    if constexpr (std::is_same_v<la::real_t<T>, float>)
      return v_loc_f_.data();
    else
      return v_loc_.data();
  }

  /// One fused sweep: out = -1/2 Lap(in) + (V_loc + shift) . in.
  template <typename T>
  void fused_sweep(std::span<const T> in, std::span<T> out, T shift) const {
    grid::FusedTerms<T> t;
    t.alpha = la::real_t<T>{-0.5};
    t.vdiag = local_potential_as<T>();
    t.beta = la::real_t<T>{1};
    t.shift = shift;
    lap_.apply_fused<T>(in, out, t);
  }

  /// Shared shifted block apply over the working scalar C (cplx or
  /// cplxf): one fused sweep per column + one nonlocal gather-GEMM.
  template <typename C>
  void apply_shifted_block_impl(const la::Matrix<C>& in, la::Matrix<C>& out,
                                C shift) const {
    RSRPA_REQUIRE(in.rows() == grid().size() && out.rows() == in.rows() &&
                  out.cols() == in.cols());
    for (std::size_t j = 0; j < in.cols(); ++j)
      fused_sweep<C>(in.col(j), out.col(j), shift);
    nonlocal_.apply_add_block<C>(in, out);
  }

  /// Shared single-column path: fused sweep + nonlocal. `shift` folds
  /// (-lambda + i omega) in.
  template <typename T>
  void apply_unchecked(std::span<const T> in, std::span<T> out,
                       T shift) const {
    fused_sweep<T>(in, out, shift);
    nonlocal_.apply_add<T>(in, out);
  }

  void refresh_bounds();

  grid::StencilLaplacian lap_;
  Crystal crystal_;
  ModelParams params_;
  std::vector<double> v_loc_;
  // FP32 copy of the local potential for the mixed-precision sweeps,
  // rebuilt whenever v_loc_ changes (refresh_bounds).
  std::vector<float> v_loc_f_;
  NonlocalProjectors nonlocal_;
  double upper_bound_ = 0.0;
  double lower_bound_ = 0.0;
};

}  // namespace rsrpa::ham
