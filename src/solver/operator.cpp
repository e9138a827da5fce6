#include "solver/operator.hpp"

#include "hamiltonian/hamiltonian.hpp"

namespace rsrpa::solver {

ApplyCostModel shifted_apply_cost(const ham::Hamiltonian& h,
                                  double elem_bytes) {
  // Sweep counting per complex column (paper SS III-C fast-memory model:
  // stencil neighbors are cache hits, every sweep reads its operands
  // once). n = grid points, nnz = total nonlocal support points. One
  // fused sweep reads in (16 B/pt), writes out (16) and reads V_loc (8);
  // the nonlocal gather+scatter touches in/out on the support (2 x 32
  // B/pt, index/value streams amortized across the block).
  //
  // Flops: each stencil tap is a real x complex multiply-add (4 flops),
  // 6r+1 taps per point; the diagonal terms add ~14 flops/pt (alpha
  // scale, V_loc + shift multiply-add); nonlocal gather+scatter are
  // real x complex multiply-adds on the support (8 flops/pt total).
  // Byte counts are in real words of `elem_bytes` (8 for the FP64/cplx
  // pipeline, 4 for the FP32 inner kernel): 5 words/pt (in 2, out 2,
  // V_loc 1) plus 8 words per nonlocal support point (gather+scatter of
  // in/out, 2 x 4). Flops are precision-independent.
  const auto n = static_cast<double>(h.grid().size());
  const auto nnz = static_cast<double>(h.nonlocal().support_size());
  const double r = h.laplacian().radius();
  ApplyCostModel m;
  m.bytes_per_column = elem_bytes * 5.0 * n + elem_bytes * 8.0 * nnz;
  m.flops_per_column = 4.0 * (6.0 * r + 1.0) * n + 14.0 * n + 8.0 * nnz;
  return m;
}

ShiftedHamiltonianOp::ShiftedHamiltonianOp(const ham::Hamiltonian& h,
                                           double lambda, double omega)
    : h_(&h), lambda_(lambda), omega_(omega) {}

void ShiftedHamiltonianOp::apply(const la::Matrix<cplx>& in,
                                 la::Matrix<cplx>& out) const {
  h_->apply_shifted_block(in, out, lambda_, omega_);
}

void ShiftedHamiltonianOp::apply_f32(const la::Matrix<la::cplxf>& in,
                                     la::Matrix<la::cplxf>& out) const {
  h_->apply_shifted_block(in, out, lambda_, omega_);
}

}  // namespace rsrpa::solver
