// Equivalence and determinism tests for the fused shifted-Hamiltonian
// apply pipeline: the single-sweep stencil kernel vs the seed wrap-table
// reference, the block nonlocal gather-GEMM vs per-column dots, the
// production Hamiltonian applies vs the seed multi-sweep
// Hamiltonian::apply_reference (shift and Chebyshev terms added here),
// and the sched determinism contract (bitwise identical output at any
// thread count).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "grid/stencil.hpp"
#include "hamiltonian/hamiltonian.hpp"
#include "sched/thread_pool.hpp"

namespace rsrpa {
namespace {

using grid::FusedTerms;
using grid::Grid3D;
using grid::StencilLaplacian;
using la::cplx;
using la::Matrix;

std::vector<double> random_field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  rng.fill_uniform(v);
  return v;
}

std::vector<cplx> random_cfield(std::size_t n, std::uint64_t seed) {
  std::vector<double> re = random_field(n, seed);
  std::vector<double> im = random_field(n, seed + 1);
  std::vector<cplx> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = {re[i], im[i]};
  return v;
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

// Fused and reference sweeps accumulate the same stencil sums in a
// different association order, so results agree to a few ulp of the
// row magnitude, not bitwise.
constexpr double kUlpTol = 1e-12;

TEST(FusedStencil, MatchesReferenceOnNonCubicGrids) {
  for (int r : {2, 4, 6}) {
    Grid3D g(14, 15, 13, 5.0, 5.5, 4.5);
    StencilLaplacian lap(g, r);
    const std::vector<double> in = random_field(g.size(), 7u * r);
    std::vector<double> fused(g.size()), ref(g.size());
    lap.apply_fused<double>(in, fused, FusedTerms<double>{});
    lap.apply_reference<double>(in, ref);
    const double tol = kUlpTol * max_abs(ref);
    for (std::size_t i = 0; i < g.size(); ++i)
      ASSERT_NEAR(fused[i], ref[i], tol) << "r=" << r << " i=" << i;
  }
}

TEST(FusedStencil, AxisShorterThanTwoRadiiStaysPeriodic) {
  // nx = 5 < 2r = 8: every x row is a wrapped boundary row, and the wrap
  // tables must still fold multiple times around the axis.
  Grid3D g(5, 12, 9, 2.0, 5.0, 4.0);
  StencilLaplacian lap(g, 4);
  const std::vector<double> in = random_field(g.size(), 42);
  std::vector<double> fused(g.size()), ref(g.size());
  lap.apply_fused<double>(in, fused, FusedTerms<double>{});
  lap.apply_reference<double>(in, ref);
  const double tol = kUlpTol * max_abs(ref);
  for (std::size_t i = 0; i < g.size(); ++i) ASSERT_NEAR(fused[i], ref[i], tol);
}

TEST(FusedStencil, FullTermCombinationMatchesManualSweeps) {
  // alpha Lap(in) + (beta v + shift) in + eta extra, complex, against an
  // explicit multi-sweep evaluation built on the reference kernel.
  Grid3D g(10, 9, 11, 4.0, 3.5, 4.5);
  StencilLaplacian lap(g, 3);
  const std::size_t n = g.size();
  const std::vector<cplx> in = random_cfield(n, 3);
  const std::vector<cplx> extra = random_cfield(n, 5);
  const std::vector<double> v = random_field(n, 9);

  FusedTerms<cplx> t;
  t.alpha = -0.5;
  t.vdiag = v.data();
  t.beta = 2.0;
  t.shift = cplx{-0.3, 0.7};
  t.extra = extra.data();
  t.eta = cplx{0.1, -0.2};

  std::vector<cplx> fused(n), ref(n);
  lap.apply_fused<cplx>(in, fused, t);
  lap.apply_reference<cplx>(in, ref);
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ref[i] = t.alpha * ref[i] + (t.beta * v[i] + t.shift) * in[i] +
             t.eta * extra[i];
    scale = std::max(scale, std::abs(ref[i]));
  }
  const double tol = kUlpTol * scale;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(fused[i].real(), ref[i].real(), tol);
    ASSERT_NEAR(fused[i].imag(), ref[i].imag(), tol);
  }
}

ham::Hamiltonian make_test_hamiltonian(int fd_radius = 4) {
  Rng rng(0);
  ham::Crystal c = ham::make_silicon_chain(1, 0.0, rng);
  Grid3D g = Grid3D::cubic(12, ham::kSiLatticeConstant);
  return ham::Hamiltonian(g, fd_radius, std::move(c), ham::ModelParams{});
}

TEST(FusedHamiltonian, ApplyMatchesReferenceRealAndShifted) {
  for (int r : {2, 4, 6}) {
    ham::Hamiltonian h = make_test_hamiltonian(r);
    const std::size_t n = h.grid().size();
    const std::vector<double> in = random_field(n, 11u + r);
    std::vector<double> fused(n), ref(n);
    h.apply<double>(in, fused);
    h.apply_reference<double>(in, ref);
    double tol = kUlpTol * max_abs(ref);
    for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(fused[i], ref[i], tol);

    const std::vector<cplx> cin = random_cfield(n, 13u + r);
    std::vector<cplx> cfused(n), cref(n);
    h.apply_shifted(cin, cfused, 0.35, 0.8);
    h.apply_reference<cplx>(cin, cref);
    for (std::size_t i = 0; i < n; ++i) cref[i] += cplx{-0.35, 0.8} * cin[i];
    double cscale = 0.0;
    for (const cplx& z : cref) cscale = std::max(cscale, std::abs(z));
    tol = kUlpTol * cscale;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(cfused[i].real(), cref[i].real(), tol);
      ASSERT_NEAR(cfused[i].imag(), cref[i].imag(), tol);
    }
  }
}

// The complex epilogue runs in the interleaved real view with explicit fma.
// Each of its four branches (vdiag and extra present or absent), for both
// complex widths, against the reference sweep plus the diagonal terms
// added in std::complex arithmetic.
template <typename T>
void expect_epilogue_branches_match_reference(double rel_tol) {
  using R = la::real_t<T>;
  const ham::Hamiltonian h = make_test_hamiltonian();
  const StencilLaplacian& lap = h.laplacian();
  const std::size_t n = h.grid().size();
  const std::vector<cplx> in64 = random_cfield(n, 71);
  const std::vector<cplx> extra64 = random_cfield(n, 73);
  std::vector<T> in(n), extra(n);
  std::vector<R> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = static_cast<T>(in64[i]);
    extra[i] = static_cast<T>(extra64[i]);
    v[i] = static_cast<R>(h.local_potential()[i]);
  }
  for (bool with_v : {true, false})
    for (bool with_extra : {true, false}) {
      FusedTerms<T> t;
      t.alpha = R(-0.5);
      if (with_v) {
        t.vdiag = v.data();
        t.beta = R(1.3);
      }
      t.shift = T(R(-0.35), R(0.8));
      if (with_extra) {
        t.extra = extra.data();
        t.eta = T(R(0.2), R(-0.6));
      }
      std::vector<T> fused(n), lap_ref(n);
      lap.apply_fused<T>(in, fused, t);
      lap.apply_reference<T>(in, lap_ref);
      double scale = 0.0;
      std::vector<cplx> ref(n);
      for (std::size_t i = 0; i < n; ++i) {
        const cplx d = (with_v ? static_cast<double>(t.beta) * v[i] : 0.0) +
                       static_cast<cplx>(t.shift);
        ref[i] = static_cast<double>(t.alpha) * static_cast<cplx>(lap_ref[i]) +
                 d * static_cast<cplx>(in[i]);
        if (with_extra)
          ref[i] += static_cast<cplx>(t.eta) * static_cast<cplx>(extra[i]);
        scale = std::max(scale, std::abs(ref[i]));
      }
      const double tol = rel_tol * scale;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(fused[i].real(), ref[i].real(), tol)
            << "vdiag=" << with_v << " extra=" << with_extra << " i=" << i;
        ASSERT_NEAR(fused[i].imag(), ref[i].imag(), tol)
            << "vdiag=" << with_v << " extra=" << with_extra << " i=" << i;
      }
    }
}

TEST(FusedHamiltonian, RealViewEpilogueMatchesReferenceOnEveryBranch) {
  expect_epilogue_branches_match_reference<cplx>(kUlpTol);
  // FP32 sweeps round the coefficients and every sum to float.
  expect_epilogue_branches_match_reference<la::cplxf>(1e-5);
}

TEST(FusedHamiltonian, ShiftedBlockMatchesReference) {
  ham::Hamiltonian h = make_test_hamiltonian();
  const std::size_t n = h.grid().size();
  const std::size_t s = 5;
  Matrix<cplx> in(n, s), fused(n, s), ref(n, s);
  for (std::size_t j = 0; j < s; ++j) {
    const std::vector<cplx> col = random_cfield(n, 17 + j);
    std::copy(col.begin(), col.end(), in.col(j).begin());
  }
  h.apply_shifted_block(in, fused, 0.2, 1.1);
  for (std::size_t j = 0; j < s; ++j) {
    h.apply_reference<cplx>(in.col(j), ref.col(j));
    for (std::size_t i = 0; i < n; ++i)
      ref.col(j)[i] += cplx{-0.2, 1.1} * in.col(j)[i];
  }
  double scale = 0.0;
  for (std::size_t j = 0; j < s; ++j)
    for (const cplx& z : ref.col(j)) scale = std::max(scale, std::abs(z));
  const double tol = kUlpTol * scale;
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(fused.col(j)[i].real(), ref.col(j)[i].real(), tol);
      ASSERT_NEAR(fused.col(j)[i].imag(), ref.col(j)[i].imag(), tol);
    }
}

TEST(FusedHamiltonian, PolyBlockMatchesReference) {
  ham::Hamiltonian h = make_test_hamiltonian();
  const std::size_t n = h.grid().size();
  const std::size_t s = 3;
  Matrix<double> in(n, s), extra(n, s), fused(n, s), ref(n, s);
  for (std::size_t j = 0; j < s; ++j) {
    const std::vector<double> a = random_field(n, 23 + j);
    const std::vector<double> b = random_field(n, 31 + j);
    std::copy(a.begin(), a.end(), in.col(j).begin());
    std::copy(b.begin(), b.end(), extra.col(j).begin());
  }
  const double c1 = 1.7, c0 = -0.4, c2 = 0.9;
  // The seed schedule: H in, then the three-term update as its own sweep.
  auto reference_poly = [&](const Matrix<double>* ex) {
    for (std::size_t j = 0; j < s; ++j) {
      h.apply_reference<double>(in.col(j), ref.col(j));
      for (std::size_t i = 0; i < n; ++i) {
        double& o = ref.col(j)[i];
        o = c1 * o + c0 * in.col(j)[i];
        if (ex != nullptr) o += c2 * ex->col(j)[i];
      }
    }
  };
  // With the extra term.
  h.apply_poly_block<double>(in, fused, c1, c0, &extra, c2);
  reference_poly(&extra);
  double scale = 0.0;
  for (std::size_t j = 0; j < s; ++j)
    for (double x : ref.col(j)) scale = std::max(scale, std::abs(x));
  double tol = kUlpTol * scale;
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(fused.col(j)[i], ref.col(j)[i], tol);
  // Without the extra term (first Chebyshev step).
  h.apply_poly_block<double>(in, fused, c1, c0, nullptr, 0.0);
  reference_poly(nullptr);
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(fused.col(j)[i], ref.col(j)[i], tol);
}

TEST(FusedNonlocal, BlockGemmMatchesPerColumnDots) {
  ham::Hamiltonian h = make_test_hamiltonian();
  const ham::NonlocalProjectors& nl = h.nonlocal();
  ASSERT_GT(nl.n_projectors(), 0u);
  ASSERT_GT(nl.support_size(), 0u);
  const std::size_t n = h.grid().size();
  const std::size_t s = 4;
  const double scale = 1.3;

  Matrix<cplx> in(n, s), gemm(n, s), percol(n, s);
  for (std::size_t j = 0; j < s; ++j) {
    const std::vector<cplx> col = random_cfield(n, 41 + j);
    std::copy(col.begin(), col.end(), in.col(j).begin());
    // apply_add accumulates: seed both outputs with the same base.
    const std::vector<double> base = random_field(n, 51 + j);
    for (std::size_t i = 0; i < n; ++i)
      gemm.col(j)[i] = percol.col(j)[i] = cplx{base[i], -base[i]};
  }
  nl.apply_add_block<cplx>(in, gemm, scale);
  nl.apply_add_block_reference<cplx>(in, percol, scale);
  double mag = 0.0;
  for (std::size_t j = 0; j < s; ++j)
    for (const cplx& z : percol.col(j)) mag = std::max(mag, std::abs(z));
  const double tol = kUlpTol * mag;
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(gemm.col(j)[i].real(), percol.col(j)[i].real(), tol);
      ASSERT_NEAR(gemm.col(j)[i].imag(), percol.col(j)[i].imag(), tol);
    }
}

TEST(FusedDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  // The fused sweep writes disjoint z chunks, so the sched determinism
  // contract applies: results must be bitwise identical at any
  // RSRPA_THREADS setting, not merely within tolerance.
  const ham::Hamiltonian h = make_test_hamiltonian();
  const std::size_t n = h.grid().size();
  const std::vector<cplx> in = random_cfield(n, 61);
  std::vector<cplx> one(n), four(n);

  sched::set_global_threads(1);
  h.apply_shifted(in, one, 0.15, 0.9);
  sched::set_global_threads(4);
  h.apply_shifted(in, four, 0.15, 0.9);
  sched::set_global_threads(0);  // restore the default pool

  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(one[i].real(), four[i].real()) << "i=" << i;
    ASSERT_EQ(one[i].imag(), four[i].imag()) << "i=" << i;
  }
}

TEST(FusedPreconditions, SizeAndAliasViolationsThrow) {
  ham::Hamiltonian h = make_test_hamiltonian();
  const std::size_t n = h.grid().size();
  std::vector<double> in(n), out(n), small(n - 1);
  EXPECT_THROW(
      h.apply<double>(in, std::span<double>(small.data(), small.size())),
      Error);
  EXPECT_THROW(h.apply<double>(std::span<const double>(in.data(), n),
                               std::span<double>(in.data(), n)),
               Error);

  StencilLaplacian lap(h.grid(), 4);
  std::vector<cplx> cbuf(n);
  EXPECT_THROW(lap.apply_fused<cplx>(std::span<const cplx>(cbuf.data(), n),
                                     std::span<cplx>(cbuf.data(), n),
                                     FusedTerms<cplx>{}),
               Error);
}

}  // namespace
}  // namespace rsrpa
