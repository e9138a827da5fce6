// Matrix-free high-order finite difference Laplacian.
//
// The six-axis (6r+1)-point stencil of the paper, applied with periodic
// boundary conditions. Following the arithmetic-intensity analysis of
// paper SS III-C, the block interface applies the stencil to ONE input
// vector at a time (apply_block) in a single memory sweep.
//
// Two kernels share the class:
//
//  * apply_fused — the only production path. One memory sweep computes
//    out = alpha * Lap(in) + (beta * vdiag + shift) . in + eta * extra,
//    which is the whole shifted-Hamiltonian diagonal part (kinetic scale,
//    local potential, complex Sternheimer shift) and the Chebyshev
//    three-term update folded into the stencil pass. The traversal is
//    split into interior rows addressed by direct strided offsets (no
//    wrap tables) and periodic boundary-shell rows whose y/z neighbors
//    are wrapped whole rows, with cache-blocked z/y tiling, threaded over
//    z chunks via sched::parallel_for_range. Both row kinds have a SIMD
//    kernel: a boundary-shell row copies its periodic x images into a
//    padded row buffer and then vectorizes over the whole row. At the
//    product grid sizes (9^3 to 11^3 at radius 4) almost every row is a
//    boundary-shell row. Each grid point performs the exact same
//    floating-point operations at every thread count and on either
//    kernel, so results are bitwise deterministic (the sched contract).
//
//  * apply_reference — the seed per-point wrap-table loop, kept as the
//    correctness oracle and the A1 ablation baseline. No option selects
//    it for a run.
//
// Template methods cover both real grid functions (DFT, Poisson checks)
// and complex ones (Sternheimer solves): the complex-shifted Hamiltonian
// applies this operator to complex blocks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "grid/fd.hpp"
#include "grid/grid.hpp"
#include "la/matrix.hpp"
#include "sched/parallel_for.hpp"

namespace rsrpa::grid {

/// Process-wide default for the SIMD stencil-row kernels, read from the
/// environment at every call (never latched): RSRPA_SIMD=0 selects the
/// scalar rows. Each StencilLaplacian samples it at construction and
/// carries its own copy, so concurrent jobs in one process configure
/// their operators independently via set_simd.
[[nodiscard]] bool default_simd();

/// Diagonal terms fused into a single stencil sweep:
///   out = alpha * Lap(in) + (beta * vdiag + shift) . in + eta * extra.
/// vdiag and extra are optional (nullptr = absent); with the defaults the
/// sweep degenerates to the plain Laplacian and the epilogue is skipped.
/// The purely real terms carry the underlying real scalar of T (double
/// for double/cplx sweeps, float for the FP32 mixed-precision sweeps) so
/// no per-point promotion to complex ever happens.
template <typename T>
struct FusedTerms {
  la::real_t<T> alpha = 1.0;            ///< scale on the Laplacian sum
  const la::real_t<T>* vdiag = nullptr; ///< real diagonal (local potential)
  la::real_t<T> beta = 0.0;             ///< scale on vdiag
  T shift{};                     ///< constant diagonal shift (-lambda + i omega)
  const T* extra = nullptr;      ///< extra vector (Chebyshev V_{k-1})
  T eta{};                       ///< scale on extra

  [[nodiscard]] bool identity() const {
    return alpha == la::real_t<T>{1} && vdiag == nullptr && shift == T{} &&
           extra == nullptr;
  }
};

namespace detail {

// Interior row segment [x0, x1): every neighbor is a direct strided
// offset from the center point, so the inner loop carries no wrap-table
// indirection and vectorizes. R > 0 bakes the radius in at compile time
// (fully unrolled neighbor loop); R == 0 falls back to the runtime r.
template <typename T, int R>
inline void stencil_row_interior(const T* in, T* out, std::size_t base,
                                 std::size_t x0, std::size_t x1, long snx,
                                 long snxny, int r, const la::real_t<T>* cx,
                                 const la::real_t<T>* cy,
                                 const la::real_t<T>* cz, la::real_t<T> diag) {
  // The coefficients stay real (never static_cast to T): scaling a
  // complex sum by a real is two multiplies, while promoting the
  // coefficient to complex costs a full complex product per neighbor.
  const int rr = R > 0 ? R : r;
  for (std::size_t ix = x0; ix < x1; ++ix) {
    const T* p = in + base + ix;
    T sum = diag * p[0];
    for (int k = 1; k <= rr; ++k) {
      sum += cx[k] * (p[k] + p[-k]);
      sum += cy[k] *
             (p[static_cast<long>(k) * snx] + p[-static_cast<long>(k) * snx]);
      sum += cz[k] * (p[static_cast<long>(k) * snxny] +
                      p[-static_cast<long>(k) * snxny]);
    }
    out[base + ix] = sum;
  }
}

template <typename T>
using StencilRowFn = void (*)(const T*, T*, std::size_t, std::size_t,
                              std::size_t, long, long, int,
                              const la::real_t<T>*, const la::real_t<T>*,
                              const la::real_t<T>*, la::real_t<T>);

template <typename T>
StencilRowFn<T> pick_interior_row(int r) {
  switch (r) {
    case 1: return &stencil_row_interior<T, 1>;
    case 2: return &stencil_row_interior<T, 2>;
    case 3: return &stencil_row_interior<T, 3>;
    case 4: return &stencil_row_interior<T, 4>;
    case 5: return &stencil_row_interior<T, 5>;
    case 6: return &stencil_row_interior<T, 6>;
    default: return &stencil_row_interior<T, 0>;
  }
}

#if defined(RSRPA_SIMD_ENABLED)

// Explicit vectorization of the stencil row sums via GCC/Clang
// vector extensions (portable across x86 widths without intrinsics).
// The stencil coefficients are purely real, so a complex row is just an
// even-length real row: with E = sizeof(T)/sizeof(real) real elements
// per grid point, every neighbor offset scales by E and each vector lane
// performs the exact multiply/add tree of the scalar kernel (same FMA
// contraction opportunities), which is what makes the SIMD path
// bitwise-identical to the scalar fallback. A row of at least one vector
// runs with no scalar tail: its last vector ends at the row end and
// overlaps the one before, rewriting the shared points with the same bits.
// The fused epilogue is shared by both row kinds (fused_row_epilogue).
namespace simd {

template <typename R>
struct lanes;
#if defined(__AVX512F__)
template <>
struct lanes<double> { static constexpr std::size_t value = 8; };
template <>
struct lanes<float> { static constexpr std::size_t value = 16; };
#elif defined(__AVX__)
template <>
struct lanes<double> { static constexpr std::size_t value = 4; };
template <>
struct lanes<float> { static constexpr std::size_t value = 8; };
#else
template <>
struct lanes<double> { static constexpr std::size_t value = 2; };
template <>
struct lanes<float> { static constexpr std::size_t value = 4; };
#endif

// Full specializations: vector_size on a dependent type is silently
// ignored, so the vector types must be spelled out per real scalar.
template <typename R>
struct vec_of;
template <>
struct vec_of<double> {
  typedef double type
      __attribute__((vector_size(lanes<double>::value * sizeof(double))));
};
template <>
struct vec_of<float> {
  typedef float type
      __attribute__((vector_size(lanes<float>::value * sizeof(float))));
};
template <typename R>
using Vec = typename vec_of<R>::type;

// Unaligned load/store; compiles to single vmovup{d,s} instructions.
template <typename R>
inline Vec<R> vload(const R* p) {
  Vec<R> v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <typename R>
inline void vstore(R* p, Vec<R> v) {
  __builtin_memcpy(p, &v, sizeof v);
}

}  // namespace simd

template <typename T, int R>
inline void stencil_row_interior_simd(const T* in, T* out, std::size_t base,
                                      std::size_t x0, std::size_t x1, long snx,
                                      long snxny, int r,
                                      const la::real_t<T>* cx,
                                      const la::real_t<T>* cy,
                                      const la::real_t<T>* cz,
                                      la::real_t<T> diag) {
  using Real = la::real_t<T>;
  using V = simd::Vec<Real>;
  constexpr std::size_t E = sizeof(T) / sizeof(Real);
  constexpr std::size_t W = simd::lanes<Real>::value;
  static_assert(W % E == 0, "vector width must hold whole grid points");
  const int rr = R > 0 ? R : r;
  const long ux = static_cast<long>(E);
  const long uy = static_cast<long>(E) * snx;
  const long uz = static_cast<long>(E) * snxny;
  const Real* rin = reinterpret_cast<const Real*>(in);
  Real* rout = reinterpret_cast<Real*>(out);
  const std::size_t rbeg = (base + x0) * E;
  const std::size_t rlen = (x1 - x0) * E;
  // A segment shorter than one vector goes through the scalar kernel.
  if (rlen < W) {
    stencil_row_interior<T, R>(in, out, base, x0, x1, snx, snxny, r, cx, cy,
                               cz, diag);
    return;
  }
  // The last vector starts at rlen - W (a whole point, as W and rlen are
  // multiples of E) and overlaps the previous one instead of a scalar tail.
  for (std::size_t i0 = 0; i0 < rlen; i0 += W) {
    const std::size_t i = std::min(i0, rlen - W);
    const Real* q = rin + rbeg + i;
    V sum = diag * simd::vload<Real>(q);
    for (int k = 1; k <= rr; ++k) {
      sum += cx[k] *
             (simd::vload<Real>(q + k * ux) + simd::vload<Real>(q - k * ux));
      sum += cy[k] *
             (simd::vload<Real>(q + k * uy) + simd::vload<Real>(q - k * uy));
      sum += cz[k] *
             (simd::vload<Real>(q + k * uz) + simd::vload<Real>(q - k * uz));
    }
    simd::vstore<Real>(rout + rbeg + i, sum);
  }
}

template <typename T>
StencilRowFn<T> pick_interior_row_simd(int r) {
  switch (r) {
    case 1: return &stencil_row_interior_simd<T, 1>;
    case 2: return &stencil_row_interior_simd<T, 2>;
    case 3: return &stencil_row_interior_simd<T, 3>;
    case 4: return &stencil_row_interior_simd<T, 4>;
    case 5: return &stencil_row_interior_simd<T, 5>;
    case 6: return &stencil_row_interior_simd<T, 6>;
    default: return &stencil_row_interior_simd<T, 0>;
  }
}

#endif  // RSRPA_SIMD_ENABLED

// x-boundary segment of an interior row: only the x neighbors wrap; y/z
// stay direct strides. The segments are at most r points on each end.
template <typename T>
inline void stencil_row_xwrap(const T* in, T* out, std::size_t base,
                              std::size_t x0, std::size_t x1, long snx,
                              long snxny, int r, const std::size_t* wx,
                              const la::real_t<T>* cx, const la::real_t<T>* cy,
                              const la::real_t<T>* cz, la::real_t<T> diag) {
  for (std::size_t ix = x0; ix < x1; ++ix) {
    const T* p = in + base + ix;
    T sum = diag * p[0];
    for (int k = 1; k <= r; ++k) {
      sum += cx[k] * (in[base + wx[static_cast<long>(ix) + k]] +
                      in[base + wx[static_cast<long>(ix) - k]]);
      sum += cy[k] *
             (p[static_cast<long>(k) * snx] + p[-static_cast<long>(k) * snx]);
      sum += cz[k] * (p[static_cast<long>(k) * snxny] +
                      p[-static_cast<long>(k) * snxny]);
    }
    out[base + ix] = sum;
  }
}

// Boundary-shell row segment [x0, x1): every axis goes through its wrap
// table (handles any wrap count, including axes shorter than 2r where
// the shells overlap). This is the scalar oracle of the wrapped-row SIMD
// kernel below and its path for rows shorter than one vector. Kept
// out-of-line with FMA contraction pinned off (here and in the vectorized
// twin): both kernels then evaluate the exact source expression tree in
// IEEE order, which is what makes the scalar == SIMD bitwise contract
// compiler-proof for wrapped rows.
// Interior rows keep contraction — their scalar/vector kernels share one
// expression shape the compiler fuses identically (checked by tests).
template <typename T>
__attribute__((noinline, optimize("fp-contract=off"))) void
stencil_row_wrapped_seg(const T* in, T* out, std::size_t nx,
                                    std::size_t ny, std::size_t iy,
                                    std::size_t iz, std::size_t base,
                                    std::size_t x0, std::size_t x1, int r,
                                    const std::size_t* wx,
                                    const std::size_t* wy,
                                    const std::size_t* wz,
                                    const la::real_t<T>* cx,
                                    const la::real_t<T>* cy,
                                    const la::real_t<T>* cz,
                                    la::real_t<T> diag) {
  for (std::size_t ix = x0; ix < x1; ++ix) {
    T sum = diag * in[base + ix];
    for (int k = 1; k <= r; ++k) {
      sum += cx[k] * (in[base + wx[static_cast<long>(ix) + k]] +
                      in[base + wx[static_cast<long>(ix) - k]]);
      sum += cy[k] *
             (in[ix + nx * (wy[static_cast<long>(iy) + k] + ny * iz)] +
              in[ix + nx * (wy[static_cast<long>(iy) - k] + ny * iz)]);
      sum += cz[k] *
             (in[ix + nx * (iy + ny * wz[static_cast<long>(iz) + k])] +
              in[ix + nx * (iy + ny * wz[static_cast<long>(iz) - k])]);
    }
    out[base + ix] = sum;
  }
}

// Full boundary-shell row.
template <typename T>
inline void stencil_row_wrapped(const T* in, T* out, std::size_t nx,
                                std::size_t ny, std::size_t iy, std::size_t iz,
                                std::size_t base, int r, const std::size_t* wx,
                                const std::size_t* wy, const std::size_t* wz,
                                const la::real_t<T>* cx, const la::real_t<T>* cy,
                                const la::real_t<T>* cz, la::real_t<T> diag) {
  stencil_row_wrapped_seg<T>(in, out, nx, ny, iy, iz, base, 0, nx, r, wx, wy,
                             wz, cx, cy, cz, diag);
}

#if defined(RSRPA_SIMD_ENABLED)

// Vectorized boundary-shell row over the whole x extent. The centre row
// and its r periodic x images on each side are first copied into the
// padded row buffer xbuf (E * (nx + 2r) reals), so every x neighbor is a
// direct stride into it; the y/z wrap offsets are constant along an x
// row, so each wrapped y/z neighbor is a contiguous row that loads
// straight into vectors. There is no scalar tail: when nx * E is not a
// multiple of W, the last vector starts at nx * E - W and overlaps the one
// before it, rewriting the shared points with identical bits. Only a row
// shorter than one vector goes through the scalar wrap-table kernel. Every
// lane reads the same values and evaluates the same expression tree as
// stencil_row_wrapped_seg, and contraction is pinned off in both (see its
// comment), so the result is bitwise-identical to the scalar fallback.
template <typename T, int R>
__attribute__((noinline, optimize("fp-contract=off"))) void
stencil_row_wrapped_simd(const T* in, T* out, std::size_t nx,
                                     std::size_t ny, std::size_t iy,
                                     std::size_t iz, std::size_t base, int r,
                                     const std::size_t* wx,
                                     const std::size_t* wy,
                                     const std::size_t* wz,
                                     const la::real_t<T>* cx,
                                     const la::real_t<T>* cy,
                                     const la::real_t<T>* cz,
                                     la::real_t<T> diag, T* xbuf) {
  using Real = la::real_t<T>;
  using V = simd::Vec<Real>;
  constexpr std::size_t E = sizeof(T) / sizeof(Real);
  constexpr std::size_t W = simd::lanes<Real>::value;
  const int rr = R > 0 ? R : r;
  const std::size_t rlen = nx * E;
  if (rlen < W) {
    stencil_row_wrapped_seg<T>(in, out, nx, ny, iy, iz, base, 0, nx, r, wx, wy,
                               wz, cx, cy, cz, diag);
    return;
  }
  const long sr = static_cast<long>(rr);
  for (long q = -sr; q < static_cast<long>(nx) + sr; ++q)
    xbuf[q + sr] = in[base + wx[q]];
  // Row base pointers of the wrapped y/z neighbors, in the real view.
  const Real* rin = reinterpret_cast<const Real*>(in);
  const Real* ybp[7];
  const Real* ybm[7];
  const Real* zbp[7];
  const Real* zbm[7];
  for (int k = 1; k <= rr; ++k) {
    ybp[k] = rin + E * (nx * (wy[static_cast<long>(iy) + k] + ny * iz));
    ybm[k] = rin + E * (nx * (wy[static_cast<long>(iy) - k] + ny * iz));
    zbp[k] = rin + E * (nx * (iy + ny * wz[static_cast<long>(iz) + k]));
    zbm[k] = rin + E * (nx * (iy + ny * wz[static_cast<long>(iz) - k]));
  }
  const Real* rx = reinterpret_cast<const Real*>(xbuf) + E * rr;
  Real* ro = reinterpret_cast<Real*>(out) + base * E;
  const long ux = static_cast<long>(E);
  // rlen - W is a whole point because W and rlen are multiples of E.
  for (std::size_t i0 = 0; i0 < rlen; i0 += W) {
    const std::size_t i = std::min(i0, rlen - W);
    const Real* q = rx + i;
    V sum = diag * simd::vload<Real>(q);
    for (int k = 1; k <= rr; ++k) {
      sum += cx[k] *
             (simd::vload<Real>(q + k * ux) + simd::vload<Real>(q - k * ux));
      sum += cy[k] *
             (simd::vload<Real>(ybp[k] + i) + simd::vload<Real>(ybm[k] + i));
      sum += cz[k] *
             (simd::vload<Real>(zbp[k] + i) + simd::vload<Real>(zbm[k] + i));
    }
    simd::vstore<Real>(ro + i, sum);
  }
}

template <typename T>
using WrappedRowFn = void (*)(const T*, T*, std::size_t, std::size_t,
                              std::size_t, std::size_t, std::size_t, int,
                              const std::size_t*, const std::size_t*,
                              const std::size_t*, const la::real_t<T>*,
                              const la::real_t<T>*, const la::real_t<T>*,
                              la::real_t<T>, T*);

template <typename T>
WrappedRowFn<T> pick_wrapped_row_simd(int r) {
  switch (r) {
    case 1: return &stencil_row_wrapped_simd<T, 1>;
    case 2: return &stencil_row_wrapped_simd<T, 2>;
    case 3: return &stencil_row_wrapped_simd<T, 3>;
    case 4: return &stencil_row_wrapped_simd<T, 4>;
    case 5: return &stencil_row_wrapped_simd<T, 5>;
    case 6: return &stencil_row_wrapped_simd<T, 6>;
    // The row-base arrays are sized for r <= 6; larger radii keep the
    // scalar wrap-table kernel.
    default: return nullptr;
  }
}

#endif  // RSRPA_SIMD_ENABLED

// Complex row epilogue in the interleaved real view, over points
// [i0, i1): o = alpha o + (beta v + shift) x + eta z, with kV / kE saying
// whether the vdiag / extra terms are present. Each complex product is
// spelled as explicit fma, like la's column_axpy: std::complex's operator*
// carries a NaN-recovery branch that keeps the loop scalar without
// -ffast-math, and explicit fma pins one rounding sequence per point in
// every inlining context.
template <bool kV, bool kE, typename R>
inline void fused_row_epilogue_complex(const R* x, R* o, const R* v,
                                       const R* z, R alpha, R beta, R sr,
                                       R si, R er, R ei, std::size_t i0,
                                       std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const R xr = x[2 * i], xi = x[2 * i + 1];
    const R d = kV ? std::fma(beta, v[i], sr) : sr;
    R re = std::fma(alpha, o[2 * i], std::fma(d, xr, -(si * xi)));
    R im = std::fma(alpha, o[2 * i + 1], std::fma(d, xi, si * xr));
    if constexpr (kE) {
      const R zr = z[2 * i], zi = z[2 * i + 1];
      re = std::fma(er, zr, std::fma(-ei, zi, re));
      im = std::fma(er, zi, std::fma(ei, zr, im));
    }
    o[2 * i] = re;
    o[2 * i + 1] = im;
  }
}

// Row epilogue of the fused sweep: combines the raw stencil sum (already
// in out, still hot in L1) with the diagonal terms. The branches hoist
// the nullable pointers out of the inner loops.
template <typename T>
inline void fused_row_epilogue(const T* in, T* out, const FusedTerms<T>& t,
                               std::size_t i0, std::size_t i1) {
  const la::real_t<T> alpha = t.alpha;
  if constexpr (!std::is_same_v<T, la::real_t<T>>) {
    using R = la::real_t<T>;
    const R* x = reinterpret_cast<const R*>(in);
    R* o = reinterpret_cast<R*>(out);
    const R* z = reinterpret_cast<const R*>(t.extra);
    const R sr = t.shift.real(), si = t.shift.imag();
    const R er = t.eta.real(), ei = t.eta.imag();
    if (t.vdiag != nullptr) {
      if (t.extra != nullptr)
        fused_row_epilogue_complex<true, true>(x, o, t.vdiag, z, alpha, t.beta,
                                               sr, si, er, ei, i0, i1);
      else
        fused_row_epilogue_complex<true, false>(x, o, t.vdiag, z, alpha,
                                                t.beta, sr, si, er, ei, i0, i1);
    } else {
      if (t.extra != nullptr)
        fused_row_epilogue_complex<false, true>(x, o, t.vdiag, z, alpha,
                                                t.beta, sr, si, er, ei, i0, i1);
      else
        fused_row_epilogue_complex<false, false>(
            x, o, t.vdiag, z, alpha, t.beta, sr, si, er, ei, i0, i1);
    }
  } else if (t.vdiag != nullptr) {
    const la::real_t<T>* v = t.vdiag;
    if (t.extra != nullptr) {
      for (std::size_t i = i0; i < i1; ++i)
        out[i] = alpha * out[i] + (t.beta * v[i] + t.shift) * in[i] +
                 t.eta * t.extra[i];
    } else {
      for (std::size_t i = i0; i < i1; ++i)
        out[i] = alpha * out[i] + (t.beta * v[i] + t.shift) * in[i];
    }
  } else {
    if (t.extra != nullptr) {
      for (std::size_t i = i0; i < i1; ++i)
        out[i] = alpha * out[i] + t.shift * in[i] + t.eta * t.extra[i];
    } else {
      for (std::size_t i = i0; i < i1; ++i)
        out[i] = alpha * out[i] + t.shift * in[i];
    }
  }
}

}  // namespace detail

class StencilLaplacian {
 public:
  StencilLaplacian(Grid3D g, int radius)
      : grid_(g),
        radius_(radius),
        coeffs_(fd_coefficients(radius)),
        wrap_x_(make_wrap(g.nx(), radius)),
        wrap_y_(make_wrap(g.ny(), radius)),
        wrap_z_(make_wrap(g.nz(), radius)) {
    const double ihx2 = 1.0 / (g.hx() * g.hx());
    const double ihy2 = 1.0 / (g.hy() * g.hy());
    const double ihz2 = 1.0 / (g.hz() * g.hz());
    cx_.resize(radius_ + 1);
    cy_.resize(radius_ + 1);
    cz_.resize(radius_ + 1);
    for (int k = 0; k <= radius_; ++k) {
      cx_[k] = coeffs_[k] * ihx2;
      cy_[k] = coeffs_[k] * ihy2;
      cz_[k] = coeffs_[k] * ihz2;
    }
    diag_ = cx_[0] + cy_[0] + cz_[0];
    // FP32 copies for the mixed-precision sweeps: rounded once here, so
    // every float apply sees one fixed coefficient table.
    cx_f_.assign(cx_.begin(), cx_.end());
    cy_f_.assign(cy_.begin(), cy_.end());
    cz_f_.assign(cz_.begin(), cz_.end());
    diag_f_ = static_cast<float>(diag_);
  }

  [[nodiscard]] const Grid3D& grid() const { return grid_; }
  [[nodiscard]] int radius() const { return radius_; }
  /// Diagonal entry of the discrete Laplacian (constant on a uniform grid).
  [[nodiscard]] double diagonal() const { return diag_; }
  /// Raw unit-spacing coefficients c_0..c_r.
  [[nodiscard]] const std::vector<double>& coefficients() const {
    return coeffs_;
  }

  /// Most negative eigenvalue of the periodic FD Laplacian, from the
  /// separable symbol. Used for Chebyshev bounds on H's spectrum.
  [[nodiscard]] double min_eigenvalue_bound() const;

  /// Cache-block extents (rows) of the fused sweep. Tiling only reorders
  /// the traversal, so results do not depend on them.
  static constexpr std::size_t kTileY = 32;
  static constexpr std::size_t kTileZ = 16;

  /// True when this build carries the explicitly vectorized stencil-row
  /// kernels (-DRSRPA_SIMD=ON, the default).
  [[nodiscard]] static constexpr bool simd_compiled() {
#if defined(RSRPA_SIMD_ENABLED)
    return true;
#else
    return false;
#endif
  }

  /// Select the vectorized stencil-row kernels for THIS operator
  /// (default: the RSRPA_SIMD environment default sampled at
  /// construction). The scalar kernels remain the mandatory runtime
  /// fallback — set_simd(false) or RSRPA_SIMD=0 — and are
  /// bitwise-identical to the SIMD path. A no-op when the build has no
  /// SIMD kernels.
  void set_simd(bool on) { simd_ = on && simd_compiled(); }
  [[nodiscard]] bool simd() const { return simd_; }

  /// out = Laplacian(in) for a single grid function: the fused
  /// interior/boundary sweep with no diagonal terms.
  template <typename T>
  void apply(std::span<const T> in, std::span<T> out) const {
    apply_fused<T>(in, out, FusedTerms<T>{});
  }

  /// Single-sweep fused kernel:
  ///   out = t.alpha * Lap(in) + (t.beta * t.vdiag + t.shift) . in
  ///         + t.eta * t.extra.
  /// One pass over memory: the raw stencil sum of each x row is written
  /// to out and immediately combined with the diagonal terms while the
  /// row is in cache. Interior rows use direct strided offsets; boundary
  /// shells (and axes shorter than 2r) resolve their neighbors through the
  /// wrap tables, and with SIMD on through a padded x row. Threaded
  /// over z chunks with disjoint writes — bitwise deterministic at every
  /// RSRPA_THREADS setting.
  template <typename T>
  void apply_fused(std::span<const T> in, std::span<T> out,
                   const FusedTerms<T>& t) const {
    RSRPA_REQUIRE(in.size() == grid_.size() && out.size() == grid_.size());
    require_no_alias(in.data(), out.data(), in.size());
    const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
    const int r = radius_;
    const std::size_t rsz = static_cast<std::size_t>(r);
    const long snx = static_cast<long>(nx);
    const long snxny = static_cast<long>(nx * ny);
    const std::size_t* wx = wrap_x_.data() + r;
    const std::size_t* wy = wrap_y_.data() + r;
    const std::size_t* wz = wrap_z_.data() + r;
    using Real = la::real_t<T>;
    const Real* cx;
    const Real* cy;
    const Real* cz;
    Real diag;
    if constexpr (std::is_same_v<Real, float>) {
      cx = cx_f_.data();
      cy = cy_f_.data();
      cz = cz_f_.data();
      diag = diag_f_;
    } else {
      cx = cx_.data();
      cy = cy_.data();
      cz = cz_.data();
      diag = diag_;
    }
    const T* pin = in.data();
    T* pout = out.data();

    // Interior extents per axis; an axis shorter than 2r is all boundary
    // (x_lo == x_hi) and the wrap tables absorb the overlapping shells.
    const std::size_t x_lo = std::min(rsz, nx);
    const std::size_t x_hi = nx >= 2 * rsz ? nx - rsz : x_lo;
    const bool y_interior = ny >= 2 * rsz;
    const bool z_interior = nz >= 2 * rsz;
    detail::StencilRowFn<T> interior_row = detail::pick_interior_row<T>(r);
#if defined(RSRPA_SIMD_ENABLED)
    detail::WrappedRowFn<T> wrapped_row_simd = nullptr;
    if (simd_) {
      interior_row = detail::pick_interior_row_simd<T>(r);
      wrapped_row_simd = detail::pick_wrapped_row_simd<T>(r);
    }
#endif
    const bool epilogue = !t.identity();

    // One task per z chunk; rows (and therefore writes) are disjoint.
    constexpr std::size_t kElemsPerTask = 1u << 16;
    const std::size_t z_grain =
        kElemsPerTask / std::max<std::size_t>(nx * ny, 1) + 1;
    sched::parallel_for_range(0, nz, z_grain, [&](std::size_t zb,
                                                  std::size_t ze) {
#if defined(RSRPA_SIMD_ENABLED)
      // Padded x row of the wrapped-row SIMD kernel, owned by this task.
      std::vector<T> xbuf;
      if (wrapped_row_simd != nullptr) xbuf.resize(nx + 2 * rsz);
#endif
      for (std::size_t z0 = zb; z0 < ze; z0 += kTileZ) {
        const std::size_t z1 = std::min(z0 + kTileZ, ze);
        for (std::size_t y0 = 0; y0 < ny; y0 += kTileY) {
          const std::size_t y1 = std::min(y0 + kTileY, ny);
          for (std::size_t iz = z0; iz < z1; ++iz) {
            const bool z_in = z_interior && iz >= rsz && iz + rsz < nz;
            for (std::size_t iy = y0; iy < y1; ++iy) {
              const std::size_t base = nx * (iy + ny * iz);
              if (z_in && y_interior && iy >= rsz && iy + rsz < ny) {
                if (x_lo > 0)
                  detail::stencil_row_xwrap<T>(pin, pout, base, 0, x_lo, snx,
                                               snxny, r, wx, cx, cy, cz, diag);
                if (x_hi > x_lo)
                  interior_row(pin, pout, base, x_lo, x_hi, snx, snxny, r, cx,
                               cy, cz, diag);
                if (x_hi < nx)
                  detail::stencil_row_xwrap<T>(pin, pout, base, x_hi, nx, snx,
                                               snxny, r, wx, cx, cy, cz, diag);
              } else {
#if defined(RSRPA_SIMD_ENABLED)
                if (wrapped_row_simd != nullptr)
                  wrapped_row_simd(pin, pout, nx, ny, iy, iz, base, r, wx, wy,
                                   wz, cx, cy, cz, diag, xbuf.data());
                else
#endif
                  detail::stencil_row_wrapped<T>(pin, pout, nx, ny, iy, iz,
                                                 base, r, wx, wy, wz, cx, cy,
                                                 cz, diag);
              }
              if (epilogue)
                detail::fused_row_epilogue<T>(pin, pout, t, base, base + nx);
            }
          }
        }
      }
    });
  }

  /// The seed wrap-table loop — correctness oracle and A1 ablation
  /// baseline. Threaded over z chunks through the sched pool (not
  /// OpenMP) so RSRPA_THREADS governs it.
  template <typename T>
  void apply_reference(std::span<const T> in, std::span<T> out) const {
    RSRPA_REQUIRE(in.size() == grid_.size() && out.size() == grid_.size());
    require_no_alias(in.data(), out.data(), in.size());
    const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
    const int r = radius_;
    const std::size_t* wx = wrap_x_.data() + r;
    const std::size_t* wy = wrap_y_.data() + r;
    const std::size_t* wz = wrap_z_.data() + r;
    constexpr std::size_t kElemsPerTask = 1u << 16;
    const std::size_t z_grain =
        kElemsPerTask / std::max<std::size_t>(nx * ny, 1) + 1;
    sched::parallel_for_range(0, nz, z_grain, [&](std::size_t zb,
                                                  std::size_t ze) {
      for (std::size_t iz = zb; iz < ze; ++iz) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
          const std::size_t base = nx * (iy + ny * iz);
          // z and y neighbor plane/row offsets are shared across the x row.
          for (std::size_t ix = 0; ix < nx; ++ix) {
            T sum = static_cast<T>(diag_) * in[base + ix];
            for (int k = 1; k <= r; ++k) {
              sum += static_cast<T>(cx_[k]) *
                     (in[base + wx[static_cast<long>(ix) + k]] +
                      in[base + wx[static_cast<long>(ix) - k]]);
              sum += static_cast<T>(cy_[k]) *
                     (in[ix + nx * (wy[static_cast<long>(iy) + k] + ny * iz)] +
                      in[ix + nx * (wy[static_cast<long>(iy) - k] + ny * iz)]);
              sum += static_cast<T>(cz_[k]) *
                     (in[ix + nx * (iy + ny * wz[static_cast<long>(iz) + k])] +
                      in[ix + nx * (iy + ny * wz[static_cast<long>(iz) - k])]);
            }
            out[base + ix] = sum;
          }
        }
      }
    });
  }

  /// Column-at-a-time block apply (the paper's preferred schedule).
  template <typename T>
  void apply_block(const la::Matrix<T>& in, la::Matrix<T>& out) const {
    RSRPA_REQUIRE(in.rows() == grid_.size() && out.rows() == in.rows() &&
                  out.cols() == in.cols());
    for (std::size_t j = 0; j < in.cols(); ++j) apply<T>(in.col(j), out.col(j));
  }

 private:
  template <typename T>
  static void require_no_alias(const T* a, const T* b, std::size_t n) {
    const auto lo_a = reinterpret_cast<std::uintptr_t>(a);
    const auto lo_b = reinterpret_cast<std::uintptr_t>(b);
    const std::uintptr_t bytes = n * sizeof(T);
    RSRPA_REQUIRE_MSG(lo_a + bytes <= lo_b || lo_b + bytes <= lo_a,
                      "stencil apply: in/out must not alias (the sweep reads "
                      "in after writing out)");
  }

  static std::vector<std::size_t> make_wrap(std::size_t n, int r) {
    // Table of size n + 2r mapping shifted position i-r (i in [0, n+2r))
    // to its periodic image; indexed as wrap[r + q] for q in [-r, n+r).
    std::vector<std::size_t> w(n + 2 * static_cast<std::size_t>(r));
    for (std::size_t i = 0; i < w.size(); ++i) {
      long q = static_cast<long>(i) - r;
      const long nn = static_cast<long>(n);
      q = ((q % nn) + nn) % nn;
      w[i] = static_cast<std::size_t>(q);
    }
    return w;
  }

  Grid3D grid_;
  int radius_;
  std::vector<double> coeffs_;
  std::vector<std::size_t> wrap_x_, wrap_y_, wrap_z_;
  std::vector<double> cx_, cy_, cz_;
  std::vector<float> cx_f_, cy_f_, cz_f_;
  double diag_ = 0.0;
  float diag_f_ = 0.0f;
  // SIMD rows, sampled from the environment at construction and
  // overridable per operator so concurrent in-process jobs never share it.
  bool simd_ = default_simd() && simd_compiled();
};

}  // namespace rsrpa::grid
