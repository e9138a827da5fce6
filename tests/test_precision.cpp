// Cross-driver precision-contract suite (ctest -L precision).
//
// The contract under test (DESIGN.md, "Precision model"):
//   - PRECISION fp64 (default) is bitwise-reproducible; the SIMD stencil
//     rows are bitwise-identical to the scalar fallback, so toggling
//     SIMD never changes an fp64 result.
//   - PRECISION mixed agrees with fp64 to <= 1e-4 Ha/atom at the
//     correlation energy on the Sternheimer and SLQ backends.
//   - PRECISION governs the Sternheimer solves only: the ground state,
//     and with it the direct and ISDF energies, is bitwise the same
//     under fp64 and mixed.
//   - Tolerances below single-precision reach are clamped at
//     sqrt(eps_f32) in the FP32 inner solves; the FP64 residual
//     replacement still meets the original request.
//   - Kill/resume under mixed stays bitwise, and the precision policy
//     joins the checkpoint fingerprint so fp64/mixed runs never
//     cross-resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "grid/stencil.hpp"
#include "hamiltonian/hamiltonian.hpp"
#include "io/checkpoint.hpp"
#include "la/blas.hpp"
#include "obs/event_log.hpp"
#include "rpa/erpa.hpp"
#include "rpa/erpa_slq.hpp"
#include "rpa/presets.hpp"
#include "solver/block_cocg.hpp"
#include "solver/dynamic_block.hpp"
#include "solver/mixed.hpp"
#include "solver/operator.hpp"
#include "svc/driver.hpp"
#include "svc/job.hpp"

namespace rsrpa {
namespace {

using common::Precision;
using grid::FusedTerms;
using grid::Grid3D;
using grid::StencilLaplacian;
using la::cplx;
using la::cplxf;
using la::Matrix;

std::vector<double> random_field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  rng.fill_uniform(v);
  return v;
}

template <typename T>
std::vector<T> random_input(std::size_t n, std::uint64_t seed);

template <>
std::vector<double> random_input<double>(std::size_t n, std::uint64_t seed) {
  return random_field(n, seed);
}

template <>
std::vector<cplx> random_input<cplx>(std::size_t n, std::uint64_t seed) {
  const std::vector<double> re = random_field(n, seed);
  const std::vector<double> im = random_field(n, seed + 1);
  std::vector<cplx> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = {re[i], im[i]};
  return v;
}

template <>
std::vector<cplxf> random_input<cplxf>(std::size_t n, std::uint64_t seed) {
  const std::vector<cplx> z = random_input<cplx>(n, seed);
  std::vector<cplxf> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<cplxf>(z[i]);
  return v;
}

// Which diagonal terms a parity sweep fuses: none (the plain Laplacian),
// every term with a real shift, or the Sternheimer combination the
// solvers run (vdiag plus a shift -lambda + i omega, no extra vector).
enum class Terms { kNone, kAll, kSternheimer };

// SIMD and scalar rows are BITWISE identical — exact equality, no ulp
// budget. By default runs the full fused term combination so the epilogue
// (not just the raw Laplacian sum) is covered.
template <typename T>
void expect_simd_bitwise(const Grid3D& g, int radius, std::uint64_t seed,
                         Terms terms = Terms::kAll) {
  StencilLaplacian lap(g, radius);
  const std::size_t n = g.size();
  const std::vector<T> in = random_input<T>(n, seed);
  const std::vector<T> extra = random_input<T>(n, seed + 7);
  std::vector<la::real_t<T>> vdiag(n);
  {
    const std::vector<double> vd = random_field(n, seed + 11);
    for (std::size_t i = 0; i < n; ++i)
      vdiag[i] = static_cast<la::real_t<T>>(vd[i]);
  }
  FusedTerms<T> t;
  t.alpha = la::real_t<T>(-0.5);
  t.vdiag = vdiag.data();
  t.beta = la::real_t<T>(1.5);
  t.shift = T(la::real_t<T>(-0.3));
  t.extra = extra.data();
  t.eta = T(la::real_t<T>(0.25));

  if (terms == Terms::kNone) t = FusedTerms<T>{};
  if constexpr (!std::is_same_v<T, la::real_t<T>>) {
    if (terms == Terms::kSternheimer) {
      t.alpha = la::real_t<T>(-0.5);
      t.beta = la::real_t<T>(1);
      t.shift = T(la::real_t<T>(-0.41), la::real_t<T>(0.83));
      t.extra = nullptr;
      t.eta = T{};
    }
  }

  std::vector<T> scalar(n), simd(n);
  lap.set_simd(false);
  lap.apply_fused<T>(in, scalar, t);
  lap.set_simd(true);
  lap.apply_fused<T>(in, simd, t);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(scalar[i], simd[i])
        << "n=" << g.nx() << " r=" << radius
        << " terms=" << static_cast<int>(terms) << " i=" << i;
}

TEST(SimdStencil, BitwiseMatchesScalarOnNonCubicGrids) {
  for (int r : {2, 4, 6}) {
    const Grid3D g(14, 15, 13, 5.0, 5.5, 4.5);
    expect_simd_bitwise<double>(g, r, 100u + r);
    expect_simd_bitwise<cplx>(g, r, 200u + r);
    expect_simd_bitwise<cplxf>(g, r, 300u + r);
  }
}

TEST(SimdStencil, BitwiseMatchesScalarWhenAxisShorterThanTwoRadii) {
  // nx = 5 < 2r: every x row is a wrapped boundary row, so this pins the
  // wrapped-row SIMD kernel (and its overlapped last vector), not just the
  // interior fast path.
  for (int r : {2, 4, 6}) {
    const Grid3D g(5, 12, 9, 2.0, 5.0, 4.0);
    expect_simd_bitwise<double>(g, r, 400u + r);
    expect_simd_bitwise<cplx>(g, r, 500u + r);
    expect_simd_bitwise<cplxf>(g, r, 600u + r);
  }
}

TEST(SimdStencil, BitwiseMatchesScalarOnProductGeometry) {
  // The cubic grids of the Si8 runs (9^3 bench scale, 11^3 shipped) and
  // their neighbours, at every radius the SIMD rows cover. Here almost
  // every x row is a wrapped boundary row, vectorized over its whole
  // length; lengths that are not a multiple of the vector width end in a
  // last vector that overlaps the one before it, at every lane width.
  for (std::size_t n : {7u, 8u, 9u, 11u}) {
    const Grid3D g = Grid3D::cubic(n, ham::kSiLatticeConstant);
    for (int r = 1; r <= 6; ++r)
      for (Terms terms : {Terms::kAll, Terms::kNone, Terms::kSternheimer}) {
        const std::uint64_t seed = 1000u * n + 10u * r +
                                   static_cast<std::uint64_t>(terms);
        if (terms != Terms::kSternheimer)
          expect_simd_bitwise<double>(g, r, seed, terms);
        expect_simd_bitwise<cplx>(g, r, seed + 3, terms);
        expect_simd_bitwise<cplxf>(g, r, seed + 5, terms);
      }
  }
}

TEST(SimdStencil, BitwiseMatchesScalarOnRowsShorterThanAVector) {
  // Rows (or interior segments) shorter than one vector keep the scalar
  // kernels: nx = 2 and 3 are whole wrapped rows of 2-3 points, and at
  // r = 2 the 7- and 13-point axes leave interior segments of 3 and 9
  // points, below and above one vector of cplxf. Covered with the
  // Sternheimer terms (complex shift) and with every term.
  for (std::size_t nx : {2u, 3u, 7u, 13u}) {
    const Grid3D g(nx, 12, 11, 1.5 + 0.4 * nx, 5.0, 4.5);
    for (int r : {1, 2, 4})
      for (Terms terms : {Terms::kAll, Terms::kSternheimer}) {
        const std::uint64_t seed = 2000u + 100u * nx + 10u * r +
                                   static_cast<std::uint64_t>(terms);
        expect_simd_bitwise<cplx>(g, r, seed, terms);
        expect_simd_bitwise<cplxf>(g, r, seed + 3, terms);
      }
  }
}

TEST(SimdStencil, RadiusBeyondSixKeepsScalarWrappedRows) {
  // The wrapped-row SIMD kernel covers r <= 6; beyond that the boundary
  // rows stay on the scalar wrap-table kernel and still agree bitwise.
#if defined(RSRPA_SIMD_ENABLED)
  EXPECT_EQ(grid::detail::pick_wrapped_row_simd<double>(8), nullptr);
  EXPECT_EQ(grid::detail::pick_wrapped_row_simd<cplx>(8), nullptr);
  EXPECT_EQ(grid::detail::pick_wrapped_row_simd<cplxf>(8), nullptr);
#endif
  for (std::size_t n : {7u, 9u, 11u, 17u})
    for (Terms terms : {Terms::kAll, Terms::kNone}) {
      const Grid3D g = Grid3D::cubic(n, ham::kSiLatticeConstant);
      expect_simd_bitwise<double>(g, 8, 700u + n, terms);
      expect_simd_bitwise<cplx>(g, 8, 800u + n, terms);
      expect_simd_bitwise<cplxf>(g, 8, 900u + n, terms);
    }
}

TEST(SimdStencil, RuntimeFallbackIsAlwaysAvailable) {
  const Grid3D g(10, 10, 10, 4.0, 4.0, 4.0);
  StencilLaplacian lap(g, 4);
  lap.set_simd(false);
  EXPECT_FALSE(lap.simd());
  lap.set_simd(true);
  EXPECT_EQ(lap.simd(), StencilLaplacian::simd_compiled());
}

// ---------------------------------------------------------------------------
// Cost model: element size is a parameter, not a hardcoded 8.

ham::Hamiltonian make_test_hamiltonian(int fd_radius = 4) {
  Rng rng(0);
  ham::Crystal c = ham::make_silicon_chain(1, 0.0, rng);
  Grid3D g = Grid3D::cubic(12, ham::kSiLatticeConstant);
  return ham::Hamiltonian(g, fd_radius, std::move(c), ham::ModelParams{});
}

TEST(ApplyCostModel, PinsBothElementSizes) {
  const ham::Hamiltonian h = make_test_hamiltonian();
  const double n = static_cast<double>(h.grid().size());
  const double nnz = static_cast<double>(h.nonlocal().support_size());

  // FP64/cplx sweeps: the legacy 8-byte-word counts, exactly.
  const solver::ApplyCostModel fused8 = solver::shifted_apply_cost(h);
  EXPECT_DOUBLE_EQ(fused8.bytes_per_column, 40.0 * n + 64.0 * nnz);

  // FP32 sweeps: exactly half the bytes, identical flops.
  const solver::ApplyCostModel fused4 = solver::shifted_apply_cost(h, 4.0);
  EXPECT_DOUBLE_EQ(fused4.bytes_per_column, 0.5 * fused8.bytes_per_column);
  EXPECT_DOUBLE_EQ(fused4.flops_per_column, fused8.flops_per_column);

  // solve_dynamic_block is the one place column counts become bytes and
  // flops: a mixed solve on the shifted operator reports exactly each
  // precision's columns times its model (integer-valued, so exact).
  const solver::ShiftedHamiltonianOp op(h, 0.1, 0.8);
  const std::size_t ng = h.grid().size(), s = 3;
  Matrix<cplx> b(ng, s), y(ng, s);
  for (std::size_t j = 0; j < s; ++j) {
    const std::vector<cplx> col = random_input<cplx>(ng, 40 + j);
    std::copy(col.begin(), col.end(), b.col(j).begin());
  }
  y.zero();
  solver::DynamicBlockOptions dopts;
  dopts.cost = fused8;
  dopts.cost_f32 = fused4;
  dopts.enabled = false;
  dopts.fixed_block = 2;  // two chunks: the totals sum per chunk
  dopts.solver.tol = 1e-6;
  dopts.solver.mixed_apply = [&op](const Matrix<cplxf>& in,
                                   Matrix<cplxf>& out) {
    op.apply_f32(in, out);
  };
  const solver::DynamicBlockReport rep =
      solver::solve_dynamic_block(std::cref(op), b, y, dopts);
  ASSERT_EQ(rep.chunks.size(), 2u);
  const auto cols = static_cast<double>(rep.total_matvec_columns);
  const auto cols_f32 = static_cast<double>(rep.total_matvec_columns_f32);
  EXPECT_GT(cols, 0.0);
  EXPECT_GT(cols_f32, 0.0);
  EXPECT_EQ(rep.total_matvec_bytes, cols * fused8.bytes_per_column +
                                     cols_f32 * fused4.bytes_per_column);
  EXPECT_EQ(rep.total_matvec_flops, cols * fused8.flops_per_column +
                                     cols_f32 * fused4.flops_per_column);
}

// ---------------------------------------------------------------------------
// Mixed block solves: FP32 inner iterations, FP64 residual replacement.

struct DenseSymmetric {
  Matrix<cplx> a64;
  Matrix<cplxf> a32;
  solver::BlockOpC op64;
  solver::BlockOpC32 op32;

  explicit DenseSymmetric(std::size_t n, std::uint64_t seed)
      : a64(n, n), a32(n, n) {
    // Diagonally dominant complex-symmetric (NOT Hermitian) matrix —
    // the coefficient class COCG/COCR are built for.
    Rng rng(seed);
    std::vector<double> re(n * n), im(n * n);
    rng.fill_uniform(re);
    rng.fill_uniform(im);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j) {
        const cplx z{0.1 * (re[i * n + j] - 0.5), 0.05 * (im[i * n + j] - 0.5)};
        a64(i, j) = z;
        a64(j, i) = z;
      }
    for (std::size_t i = 0; i < n; ++i) a64(i, i) += cplx{3.0, 0.5};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        a32(i, j) = static_cast<cplxf>(a64(i, j));
    op64 = [this](const Matrix<cplx>& in, Matrix<cplx>& out) {
      la::gemm_nn(cplx{1}, a64, in, cplx{0}, out);
    };
    op32 = [this](const Matrix<cplxf>& in, Matrix<cplxf>& out) {
      la::gemm_nn(cplxf{1}, a32, in, cplxf{0}, out);
    };
  }
};

Matrix<cplx> random_rhs(std::size_t n, std::size_t s, std::uint64_t seed) {
  Matrix<cplx> b(n, s);
  for (std::size_t j = 0; j < s; ++j) {
    const std::vector<cplx> col = random_input<cplx>(n, seed + j);
    std::copy(col.begin(), col.end(), b.col(j).begin());
  }
  return b;
}

double rel_diff(const Matrix<cplx>& a, const Matrix<cplx>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) {
      num += std::norm(a(i, j) - b(i, j));
      den += std::norm(b(i, j));
    }
  return std::sqrt(num / den);
}

TEST(MixedSolve, BlockCocgAgreesWithFp64AndCountsF32) {
  const std::size_t n = 48, s = 3;
  DenseSymmetric sys(n, 21);
  const Matrix<cplx> b = random_rhs(n, s, 33);

  solver::SolverOptions opts;
  opts.tol = 1e-8;
  Matrix<cplx> y64(n, s);
  y64.zero();
  const solver::SolveReport r64 = solver::block_cocg(sys.op64, b, y64, opts);
  ASSERT_TRUE(r64.converged);
  EXPECT_EQ(r64.matvec_columns_f32, 0);

  solver::SolverOptions mopts = opts;
  mopts.mixed_apply = sys.op32;
  Matrix<cplx> ym(n, s);
  ym.zero();
  const solver::SolveReport rm = solver::block_cocg(sys.op64, b, ym, mopts);
  ASSERT_TRUE(rm.converged);
  EXPECT_LE(rm.relative_residual, opts.tol);
  // The inner iterations actually ran in FP32 ...
  EXPECT_GT(rm.matvec_columns_f32, 0);
  // ... and the answer matches the FP64 solve to the requested tolerance
  // (both are within tol of the true solution).
  EXPECT_LT(rel_diff(ym, y64), 10.0 * opts.tol);
}

TEST(MixedSolve, ToleranceBelowF32ReachIsClampedAndStillMet) {
  // tol = 1e-12 is far below sqrt(eps_f32) ~ 3.4e-4: each FP32 inner
  // solve stops at the clamp and the FP64 residual replacement carries
  // the remainder over several outer cycles.
  EXPECT_GT(solver::f32_tol_floor(), 3e-4);
  EXPECT_LT(solver::f32_tol_floor(), 4e-4);

  const std::size_t n = 48, s = 2;
  DenseSymmetric sys(n, 77);
  const Matrix<cplx> b = random_rhs(n, s, 91);
  solver::SolverOptions opts;
  opts.tol = 1e-12;
  opts.mixed_apply = sys.op32;
  Matrix<cplx> y(n, s);
  y.zero();
  const solver::SolveReport rep = solver::block_cocg(sys.op64, b, y, opts);
  ASSERT_TRUE(rep.converged);
  EXPECT_LE(rep.relative_residual, 1e-12);
  EXPECT_GT(rep.matvec_columns_f32, 0);

  // Verify against the operator directly: ||A y - b|| / ||b|| <= tol.
  Matrix<cplx> ay(n, s);
  sys.op64(y, ay);
  double num = 0.0, den = 0.0;
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      num += std::norm(ay(i, j) - b(i, j));
      den += std::norm(b(i, j));
    }
  EXPECT_LE(std::sqrt(num / den), 1e-11);
}

// ---------------------------------------------------------------------------
// Driver-level contract: every METHOD backend, mixed vs fp64.

std::string tiny_cfg(const char* method, const char* precision) {
  std::string s;
  s += "GRID_PER_CELL: 5\n";
  s += "FD_RADIUS: 2\n";
  s += "N_EIG_PER_ATOM: 2\n";
  s += "N_NUCHI_EIGS: 16\n";
  s += "N_OMEGA: 2\n";
  s += "METHOD: ";
  s += method;
  s += "\nPRECISION: ";
  s += precision;
  s += "\n";
  return s;
}

double run_tiny(const char* method, const char* precision) {
  const svc::JobSpec spec =
      svc::parse_job(Config::parse(tiny_cfg(method, precision)));
  rpa::BuiltSystem sys = rpa::build_system(spec.preset);
  const svc::DriverRun run = svc::run_driver(spec, sys, spec.options, nullptr);
  EXPECT_TRUE(std::isfinite(run.e_rpa_per_atom));
  return run.e_rpa_per_atom;
}

TEST(PrecisionContract, AllFourBackendsMixedMatchesFp64) {
  // The dense backends never run a Sternheimer solve, so PRECISION cannot
  // reach them: bitwise.
  for (const char* m : {"direct", "isdf"}) {
    SCOPED_TRACE(m);
    EXPECT_EQ(run_tiny(m, "mixed"), run_tiny(m, "fp64"));
  }
  for (const char* m : {"sternheimer", "slq"}) {
    SCOPED_TRACE(m);
    const double e64 = run_tiny(m, "fp64");
    const double em = run_tiny(m, "mixed");
    EXPECT_NEAR(em, e64, 1e-4) << "per-atom energies diverged on " << m;
  }
}

TEST(PrecisionContract, GroundStateIgnoresPrecision) {
  const auto build = [](const char* precision) {
    return rpa::build_system(
        svc::parse_job(Config::parse(tiny_cfg("sternheimer", precision)))
            .preset);
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const rpa::BuiltSystem s64 = build("fp64");
  const rpa::BuiltSystem sm = build("mixed");
  const std::vector<double>& e64 = s64.ks.eigenvalues;
  const std::vector<double>& em = sm.ks.eigenvalues;
  ASSERT_EQ(em.size(), e64.size());
  for (std::size_t j = 0; j < e64.size(); ++j)
    ASSERT_EQ(bits(em[j]), bits(e64[j])) << "eigenvalue " << j;
  const Matrix<double>& o64 = s64.ks.orbitals;
  const Matrix<double>& om = sm.ks.orbitals;
  ASSERT_EQ(om.rows(), o64.rows());
  ASSERT_EQ(om.cols(), o64.cols());
  for (std::size_t j = 0; j < o64.cols(); ++j)
    for (std::size_t i = 0; i < o64.rows(); ++i)
      ASSERT_EQ(bits(om(i, j)), bits(o64(i, j)))
          << "orbital " << j << " row " << i;
}

TEST(PrecisionContract, ParseJobRoutesPrecisionEverywhere) {
  const svc::JobSpec spec =
      svc::parse_job(Config::parse(tiny_cfg("sternheimer", "mixed")));
  EXPECT_EQ(spec.options.stern.precision, Precision::kMixed);
  EXPECT_EQ(spec.slq.stern.precision, Precision::kMixed);

  const svc::JobSpec def =
      svc::parse_job(Config::parse(tiny_cfg("sternheimer", "fp64")));
  EXPECT_EQ(def.options.stern.precision, Precision::kFp64);
  EXPECT_THROW(svc::parse_job(Config::parse(tiny_cfg("sternheimer", "fp16"))),
               std::invalid_argument);

  // SIMD follows the inherit/override preset pattern.
  EXPECT_EQ(spec.preset.simd, -1);
  const svc::JobSpec simd_off = svc::parse_job(
      Config::parse(tiny_cfg("sternheimer", "fp64") + "SIMD: 0\n"));
  EXPECT_EQ(simd_off.preset.simd, 0);
}

// ---------------------------------------------------------------------------
// Checkpoint: kill/resume under mixed stays bitwise; the precision policy
// joins the fingerprint.

class PrecisionCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rsrpa_precision_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;

  static rpa::BuiltSystem& built() {
    static rpa::BuiltSystem b = [] {
      rpa::SystemPreset p = rpa::make_si_preset(1, false);
      p.grid_per_cell = 7;
      p.n_eig_per_atom = 2;  // n_eig = 16
      p.fd_radius = 3;
      return rpa::build_system(p);
    }();
    return b;
  }

  static rpa::RpaOptions mixed_options() {
    rpa::RpaOptions opts = built().default_rpa_options();
    opts.n_eig = 16;
    opts.ell = 2;
    opts.tol_eig = {4e-3, 2e-3};
    opts.stern.dynamic_block = false;
    opts.stern.fixed_block = 4;
    opts.stern.precision = Precision::kMixed;
    return opts;
  }
};

TEST_F(PrecisionCheckpointTest, KillResumeUnderMixedIsBitwise) {
  auto& b = built();
  const rpa::RpaResult straight =
      rpa::compute_rpa_energy(b.ks, *b.klap, mixed_options());
  ASSERT_TRUE(std::isfinite(straight.e_rpa));
  // Mixed actually engaged: FP32 columns were spent.
  EXPECT_GT(straight.stern.matvec_columns_f32, 0);

  const std::string ckpt = (dir_ / "mixed.ckpt").string();
  rpa::RpaOptions killed = mixed_options();
  killed.checkpoint.path = ckpt;
  killed.checkpoint.halt_after_point = 0;
  EXPECT_THROW(rpa::compute_rpa_energy(b.ks, *b.klap, killed), rpa::RunHalted);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  rpa::RpaOptions resumed = mixed_options();
  resumed.checkpoint.path = ckpt;
  resumed.checkpoint.resume = true;
  const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, resumed);
  EXPECT_EQ(straight.e_rpa, r.e_rpa);
  EXPECT_EQ(straight.stern.matvec_columns_f32, r.stern.matvec_columns_f32);
  ASSERT_EQ(straight.per_omega.size(), r.per_omega.size());
  for (std::size_t k = 0; k < straight.per_omega.size(); ++k) {
    EXPECT_EQ(straight.per_omega[k].e_term, r.per_omega[k].e_term);
    EXPECT_EQ(straight.per_omega[k].eigenvalues, r.per_omega[k].eigenvalues);
  }
}

TEST_F(PrecisionCheckpointTest, FingerprintSeparatesPrecisionPolicies) {
  auto& b = built();
  rpa::RpaOptions o64 = mixed_options();
  o64.stern.precision = Precision::kFp64;
  const rpa::RpaOptions om = mixed_options();
  EXPECT_NE(io::run_fingerprint(b.ks, o64), io::run_fingerprint(b.ks, om));

  rpa::SlqRpaOptions s64;
  s64.ell = 2;
  rpa::SlqRpaOptions sm = s64;
  sm.stern.precision = Precision::kMixed;
  EXPECT_NE(io::run_fingerprint(b.ks, s64), io::run_fingerprint(b.ks, sm));
}

// ---------------------------------------------------------------------------
// Telemetry: the one-time clamp notice.

TEST_F(PrecisionCheckpointTest, ClampNoticeEmittedOnceWhenTolBelowF32Reach) {
  auto& b = built();
  rpa::RpaOptions opts = mixed_options();
  opts.ell = 1;
  opts.tol_eig = {4e-3};
  opts.stern.tol = 1e-5;  // below sqrt(eps_f32) ~ 3.4e-4
  const rpa::RpaResult r = rpa::compute_rpa_energy(b.ks, *b.klap, opts);
  EXPECT_EQ(r.events.count(obs::events::kPrecisionClamped), 1u);

  // fp64 runs never clamp; neither do mixed runs whose tolerance is
  // within single-precision reach.
  rpa::RpaOptions loose = mixed_options();
  loose.ell = 1;
  loose.tol_eig = {4e-3};
  const rpa::RpaResult r2 = rpa::compute_rpa_energy(b.ks, *b.klap, loose);
  EXPECT_EQ(r2.events.count(obs::events::kPrecisionClamped), 0u);
}

}  // namespace
}  // namespace rsrpa
