// A1 / SS III-C ablation: stencil applied one vector at a time vs to s
// vectors simultaneously (google-benchmark microbenchmark).
//
// Expected shape (paper SS III-C): the fast-memory model says applying
// the stencil per vector sustains at least the throughput of the
// simultaneous schedule, because the simultaneous working set is s times
// larger for the same arithmetic intensity ceiling.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "grid/stencil.hpp"
#include "hamiltonian/hamiltonian.hpp"
#include "solver/operator.hpp"

namespace {

using rsrpa::grid::Grid3D;
using rsrpa::grid::StencilLaplacian;
using rsrpa::la::cplx;
using rsrpa::la::Matrix;

// Periodic image of every shifted position q in [-r, m + r), indexed as
// table[r + q]: built once per axis so the foil's inner loops carry the
// same one-lookup-per-neighbor cost as the seed schedule did.
std::vector<std::size_t> periodic_table(std::size_t m, int r) {
  std::vector<std::size_t> t(m + 2 * static_cast<std::size_t>(r));
  const long mm = static_cast<long>(m);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const long q = static_cast<long>(i) - r;
    t[i] = static_cast<std::size_t>(((q % mm) + mm) % mm);
  }
  return t;
}

// The SS III-C foil: grid points in the outer loops and the s vectors
// innermost, so the working set grows by a factor s — the effect the
// paper's fast-memory model predicts will hurt. Built on the operator's
// public coefficients and threaded with OpenMP, the seed execution model
// (the library itself runs only the column-at-a-time sched schedule).
void apply_block_simultaneous(const StencilLaplacian& lap,
                              const Matrix<double>& in, Matrix<double>& out) {
  const Grid3D& g = lap.grid();
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const std::size_t s = in.cols();
  const std::size_t n = g.size();
  const int r = lap.radius();
  const std::vector<double>& c = lap.coefficients();
  const double ihx2 = 1.0 / (g.hx() * g.hx());
  const double ihy2 = 1.0 / (g.hy() * g.hy());
  const double ihz2 = 1.0 / (g.hz() * g.hz());
  std::vector<double> cx(r + 1), cy(r + 1), cz(r + 1);
  for (int k = 0; k <= r; ++k) {
    cx[k] = c[k] * ihx2;
    cy[k] = c[k] * ihy2;
    cz[k] = c[k] * ihz2;
  }
  const double diag = lap.diagonal();
  const std::vector<std::size_t> tx = periodic_table(nx, r);
  const std::vector<std::size_t> ty = periodic_table(ny, r);
  const std::vector<std::size_t> tz = periodic_table(nz, r);
  const std::size_t* wx = tx.data() + r;
  const std::size_t* wy = ty.data() + r;
  const std::size_t* wz = tz.data() + r;
  const double* pin = in.data();
  double* pout = out.data();
#pragma omp parallel for schedule(static)
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const long sx = static_cast<long>(ix), sy = static_cast<long>(iy),
                   sz = static_cast<long>(iz);
        const std::size_t p = ix + nx * (iy + ny * iz);
        for (std::size_t j = 0; j < s; ++j)
          pout[p + j * n] = diag * pin[p + j * n];
        for (int k = 1; k <= r; ++k) {
          const std::size_t xp = wx[sx + k] + nx * (iy + ny * iz);
          const std::size_t xm = wx[sx - k] + nx * (iy + ny * iz);
          const std::size_t yp = ix + nx * (wy[sy + k] + ny * iz);
          const std::size_t ym = ix + nx * (wy[sy - k] + ny * iz);
          const std::size_t zp = ix + nx * (iy + ny * wz[sz + k]);
          const std::size_t zm = ix + nx * (iy + ny * wz[sz - k]);
          for (std::size_t j = 0; j < s; ++j) {
            const std::size_t o = j * n;
            pout[p + o] += cx[k] * (pin[xp + o] + pin[xm + o]) +
                           cy[k] * (pin[yp + o] + pin[ym + o]) +
                           cz[k] * (pin[zp + o] + pin[zm + o]);
          }
        }
      }
    }
  }
}

struct Fixture {
  Grid3D g = Grid3D::cubic(48, 24.0);
  StencilLaplacian lap{g, 6};
  Matrix<double> in, out;

  explicit Fixture(std::size_t s) : in(g.size(), s), out(g.size(), s) {
    rsrpa::Rng rng(1);
    for (std::size_t j = 0; j < s; ++j) rng.fill_uniform(in.col(j));
  }
};

void BM_StencilOneVectorAtATime(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    f.lap.apply_block(f.in, f.out);
    benchmark::DoNotOptimize(f.out.data());
  }
  const double flops_per_point = 2.0 * (6.0 * f.lap.radius() + 1.0);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops_per_point * static_cast<double>(f.g.size()) *
          static_cast<double>(state.range(0)) *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_StencilSimultaneous(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    apply_block_simultaneous(f.lap, f.in, f.out);
    benchmark::DoNotOptimize(f.out.data());
  }
  const double flops_per_point = 2.0 * (6.0 * f.lap.radius() + 1.0);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops_per_point * static_cast<double>(f.g.size()) *
          static_cast<double>(state.range(0)) *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_StencilOneVectorAtATime)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_StencilSimultaneous)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Fused vs reference shifted-Hamiltonian block apply — the Sternheimer
// hot loop. The fused path is one sweep per column plus the block
// nonlocal gather-GEMM; the reference is the seed four-pass schedule
// (Hamiltonian::apply_reference plus a shift sweep, per column). GB/s and
// AI come from the per-column traffic model the solver telemetry uses
// (solver::shifted_apply_cost) and its seed-schedule counterpart below.
struct HamFixture {
  rsrpa::Rng rng{1};
  rsrpa::ham::Hamiltonian h{Grid3D::cubic(48, rsrpa::ham::kSiLatticeConstant),
                            6, rsrpa::ham::make_silicon_chain(1, 0.0, rng),
                            rsrpa::ham::ModelParams{}};
  Matrix<cplx> in, out;

  explicit HamFixture(std::size_t s)
      : in(h.grid().size(), s), out(h.grid().size(), s) {
    rsrpa::Rng fill(2);
    std::vector<double> re(h.grid().size()), im(h.grid().size());
    for (std::size_t j = 0; j < s; ++j) {
      fill.fill_uniform(re);
      fill.fill_uniform(im);
      auto col = in.col(j);
      for (std::size_t i = 0; i < col.size(); ++i) col[i] = {re[i], im[i]};
    }
  }
};

constexpr double kLambda = 0.2;
constexpr double kOmega = 1.0;

// Seed-schedule traffic under the same SS III-C model: stencil sweep
// (in + out, 4 words/pt), -1/2 scale + V_loc sweep (out read/write + in +
// V_loc, 7) and shift sweep (out read/write + in, 6) — 17 words/pt
// against the fused sweep's 5 — plus the same nonlocal term. The flops
// are the fused model's: the same work spread over more sweeps.
rsrpa::solver::ApplyCostModel seed_apply_cost(
    const rsrpa::ham::Hamiltonian& h) {
  const auto n = static_cast<double>(h.grid().size());
  const auto nnz = static_cast<double>(h.nonlocal().support_size());
  rsrpa::solver::ApplyCostModel m = rsrpa::solver::shifted_apply_cost(h);
  m.bytes_per_column = 8.0 * 17.0 * n + 8.0 * 8.0 * nnz;
  return m;
}

void set_apply_counters(benchmark::State& state,
                        const rsrpa::solver::ApplyCostModel& cost) {
  const double cols = static_cast<double>(state.range(0)) *
                      static_cast<double>(state.iterations());
  state.counters["GFLOP/s"] = benchmark::Counter(
      cost.flops_per_column * cols * 1e-9, benchmark::Counter::kIsRate);
  state.counters["GB/s"] = benchmark::Counter(
      cost.bytes_per_column * cols * 1e-9, benchmark::Counter::kIsRate);
  state.counters["AI"] = benchmark::Counter(
      cost.flops_per_column / cost.bytes_per_column);
}

void shifted_apply_bench(benchmark::State& state, bool simd) {
  HamFixture f(static_cast<std::size_t>(state.range(0)));
  f.h.set_simd(simd);
  for (auto _ : state) {
    f.h.apply_shifted_block(f.in, f.out, kLambda, kOmega);
    benchmark::DoNotOptimize(f.out.data());
  }
  set_apply_counters(state, rsrpa::solver::shifted_apply_cost(f.h));
}

void BM_ShiftedApplyFused(benchmark::State& state) {
  shifted_apply_bench(state, true);
}

// Rung 1 of the speedup ladder: the fused pipeline with the scalar
// stencil rows (the mandatory runtime fallback).
void BM_ShiftedApplyFusedScalar(benchmark::State& state) {
  shifted_apply_bench(state, false);
}

void BM_ShiftedApplyReference(benchmark::State& state) {
  HamFixture f(static_cast<std::size_t>(state.range(0)));
  const cplx shift{-kLambda, kOmega};
  for (auto _ : state) {
    for (std::size_t j = 0; j < f.in.cols(); ++j) {
      auto icol = f.in.col(j);
      auto ocol = f.out.col(j);
      f.h.apply_reference<cplx>(icol, ocol);
      for (std::size_t i = 0; i < icol.size(); ++i) ocol[i] += shift * icol[i];
    }
    benchmark::DoNotOptimize(f.out.data());
  }
  set_apply_counters(state, seed_apply_cost(f.h));
}

// Rung 3: the FP32 shifted apply the mixed-precision inner iterations
// run — same operator, 4-byte words, SIMD rows at twice the lane count.
struct HamFixtureF32 {
  rsrpa::Rng rng{1};
  rsrpa::ham::Hamiltonian h{Grid3D::cubic(48, rsrpa::ham::kSiLatticeConstant),
                            6, rsrpa::ham::make_silicon_chain(1, 0.0, rng),
                            rsrpa::ham::ModelParams{}};
  Matrix<rsrpa::la::cplxf> in, out;

  explicit HamFixtureF32(std::size_t s)
      : in(h.grid().size(), s), out(h.grid().size(), s) {
    rsrpa::Rng fill(2);
    std::vector<double> re(h.grid().size()), im(h.grid().size());
    for (std::size_t j = 0; j < s; ++j) {
      fill.fill_uniform(re);
      fill.fill_uniform(im);
      auto col = in.col(j);
      for (std::size_t i = 0; i < col.size(); ++i)
        col[i] = {static_cast<float>(re[i]), static_cast<float>(im[i])};
    }
  }
};

void BM_ShiftedApplyFusedSimdF32(benchmark::State& state) {
  HamFixtureF32 f(static_cast<std::size_t>(state.range(0)));
  f.h.set_simd(true);
  for (auto _ : state) {
    f.h.apply_shifted_block(f.in, f.out, kLambda, kOmega);
    benchmark::DoNotOptimize(f.out.data());
  }
  set_apply_counters(state, rsrpa::solver::shifted_apply_cost(f.h, 4.0));
}

// Rung 4: one complex column through the fused stencil sweep on the Si8
// product grids (9^3 bench scale, 11^3 shipped, radius 4), scalar rows vs
// SIMD rows. At these sizes almost every x row is a wrapped boundary row,
// so this rung measures the wrapped-row kernel, which the 48^3 rungs above
// barely touch. The terms are those of the shifted Hamiltonian apply.
void product_grid_stencil_bench(benchmark::State& state, bool simd) {
  const Grid3D g = Grid3D::cubic(static_cast<std::size_t>(state.range(0)),
                                 rsrpa::ham::kSiLatticeConstant);
  StencilLaplacian lap(g, 4);
  lap.set_simd(simd);
  rsrpa::Rng rng(3);
  std::vector<double> re(g.size()), im(g.size()), vloc(g.size());
  rng.fill_uniform(re);
  rng.fill_uniform(im);
  rng.fill_uniform(vloc);
  std::vector<cplx> in(g.size()), out(g.size());
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = {re[i], im[i]};
  rsrpa::grid::FusedTerms<cplx> t;
  t.alpha = -0.5;
  t.vdiag = vloc.data();
  t.beta = 1.0;
  t.shift = {-kLambda, kOmega};
  for (auto _ : state) {
    lap.apply_fused<cplx>(in, out, t);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_ProductGridStencilScalar(benchmark::State& state) {
  product_grid_stencil_bench(state, false);
}

void BM_ProductGridStencilSimd(benchmark::State& state) {
  product_grid_stencil_bench(state, true);
}

BENCHMARK(BM_ShiftedApplyFusedScalar)->Arg(8);
BENCHMARK(BM_ShiftedApplyFused)->Arg(8);
BENCHMARK(BM_ShiftedApplyFusedSimdF32)->Arg(8);
BENCHMARK(BM_ShiftedApplyReference)->Arg(8);
BENCHMARK(BM_ProductGridStencilScalar)->Arg(9)->Arg(11);
BENCHMARK(BM_ProductGridStencilSimd)->Arg(9)->Arg(11);

// Console reporter that additionally captures every run (name, iteration
// count, per-iteration time, finalized counters such as GFLOP/s) into a
// Json array for the bench_out report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(rsrpa::obs::Json* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      rsrpa::obs::Json r = rsrpa::obs::Json::object();
      r["name"] = rsrpa::obs::Json(run.benchmark_name());
      r["iterations"] = rsrpa::obs::Json(
          static_cast<long long>(run.iterations));
      r["real_time_per_iteration_s"] = rsrpa::obs::Json(
          run.iterations > 0 ? run.real_accumulated_time /
                                   static_cast<double>(run.iterations)
                             : 0.0);
      for (const auto& kv : run.counters)
        r[kv.first] = rsrpa::obs::Json(static_cast<double>(kv.second.value));
      out_->push_back(std::move(r));
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  rsrpa::obs::Json* out_;
};

double gflops_of(const rsrpa::obs::Json& runs, const std::string& name) {
  for (const auto& r : runs.as_array()) {
    const rsrpa::obs::Json* n = r.find("name");
    const rsrpa::obs::Json* g = r.find("GFLOP/s");
    if (n != nullptr && g != nullptr && n->as_string() == name)
      return g->as_double();
  }
  return 0.0;
}

// Largest |simultaneous - apply_block| over an s = 4 block, relative to
// the largest |apply_block| entry: the two schedules sum the same stencil
// taps in a different order, so they agree to rounding, not bitwise.
double simultaneous_rel_error() {
  Fixture f(4);
  Matrix<double> sim(f.in.rows(), f.in.cols());
  f.lap.apply_block(f.in, f.out);
  apply_block_simultaneous(f.lap, f.in, sim);
  double err = 0.0, scale = 0.0;
  for (std::size_t j = 0; j < f.in.cols(); ++j)
    for (std::size_t i = 0; i < f.in.rows(); ++i) {
      err = std::max(err, std::abs(sim.col(j)[i] - f.out.col(j)[i]));
      scale = std::max(scale, std::abs(f.out.col(j)[i]));
    }
  return scale > 0.0 ? err / scale : err;
}

double seconds_of(const rsrpa::obs::Json& runs, const std::string& name) {
  for (const auto& r : runs.as_array()) {
    const rsrpa::obs::Json* n = r.find("name");
    const rsrpa::obs::Json* t = r.find("real_time_per_iteration_s");
    if (n != nullptr && t != nullptr && n->as_string() == name)
      return t->as_double();
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  rsrpa::bench::JsonReport report(
      "a1_stencil_ai", "SS III-C analysis",
      "per-vector stencil application sustains at least the throughput of "
      "the simultaneous schedule (fast-memory model)");

  rsrpa::obs::Json runs = rsrpa::obs::Json::array();
  CapturingReporter reporter(&runs);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t n_run = benchmark::RunSpecifiedBenchmarks(&reporter);

  const double one16 = gflops_of(runs, "BM_StencilOneVectorAtATime/16");
  const double sim16 = gflops_of(runs, "BM_StencilSimultaneous/16");
  const double t_scalar = seconds_of(runs, "BM_ShiftedApplyFusedScalar/8");
  const double t_fused = seconds_of(runs, "BM_ShiftedApplyFused/8");
  const double t_f32 = seconds_of(runs, "BM_ShiftedApplyFusedSimdF32/8");
  const double t_ref = seconds_of(runs, "BM_ShiftedApplyReference/8");
  const double speedup = t_fused > 0.0 ? t_ref / t_fused : 0.0;
  const double simd_speedup = t_fused > 0.0 ? t_scalar / t_fused : 0.0;
  const double mixed_speedup = t_f32 > 0.0 ? t_scalar / t_f32 : 0.0;
  const bool simd_compiled = StencilLaplacian::simd_compiled();
  auto product_speedup = [&](int n) {
    const std::string arg = "/" + std::to_string(n);
    const double t_simd = seconds_of(runs, "BM_ProductGridStencilSimd" + arg);
    return t_simd > 0.0
               ? seconds_of(runs, "BM_ProductGridStencilScalar" + arg) / t_simd
               : 0.0;
  };
  const double product9 = product_speedup(9);
  const double product11 = product_speedup(11);
  const double sim_err = simultaneous_rel_error();
  report.data()["runs"] = std::move(runs);
  report.data()["gflops_one_at_a_time_s16"] = rsrpa::obs::Json(one16);
  report.data()["gflops_simultaneous_s16"] = rsrpa::obs::Json(sim16);
  report.data()["shifted_apply_fused_scalar_s"] = rsrpa::obs::Json(t_scalar);
  report.data()["shifted_apply_fused_s"] = rsrpa::obs::Json(t_fused);
  report.data()["shifted_apply_fused_simd_f32_s"] = rsrpa::obs::Json(t_f32);
  report.data()["shifted_apply_reference_s"] = rsrpa::obs::Json(t_ref);
  report.data()["fused_speedup"] = rsrpa::obs::Json(speedup);
  report.data()["simd_speedup"] = rsrpa::obs::Json(simd_speedup);
  report.data()["mixed_apply_speedup"] = rsrpa::obs::Json(mixed_speedup);
  report.data()["simd_compiled"] = rsrpa::obs::Json(simd_compiled);
  rsrpa::obs::Json product = rsrpa::obs::Json::object();
  product["n9"] = rsrpa::obs::Json(product9);
  product["n11"] = rsrpa::obs::Json(product11);
  report.data()["product_grid_simd_speedup"] = std::move(product);
  std::printf("\ns=16 throughput: one-at-a-time %.2f GFLOP/s vs simultaneous "
              "%.2f GFLOP/s\n",
              one16, sim16);
  std::printf("simultaneous vs apply_block (s=4): max rel deviation %.2e\n",
              sim_err);
  std::printf("shifted apply s=8: fused %.4f s vs reference %.4f s "
              "(speedup %.2fx)\n",
              t_fused, t_ref, speedup);
  std::printf("speedup ladder s=8: fused %.4f s -> fused+SIMD %.4f s "
              "(%.2fx) -> fused+SIMD+f32 %.4f s (%.2fx)%s\n",
              t_scalar, t_fused, simd_speedup, t_f32, mixed_speedup,
              simd_compiled ? "" : "  [SIMD not compiled: ladder waived]");
  std::printf("product grids r=4, one complex column: SIMD rows %.2fx over "
              "scalar on 9^3, %.2fx on 11^3\n",
              product9, product11);
  report.add_check("all benchmark runs captured with throughput counters",
                   n_run == 18 && one16 > 0.0 && sim16 > 0.0);
  report.add_check("simultaneous schedule matches apply_block within 1e-12",
                   sim_err <= 1e-12);
  // Machine-load-tolerant version of the paper claim: the per-vector
  // schedule should at least be in the same league as the simultaneous one.
  report.add_check("one-at-a-time sustains >= 0.5x simultaneous at s=16",
                   one16 >= 0.5 * sim16);
  report.add_check("fused shifted apply >= 1.5x faster than the seed path",
                   speedup >= 1.5);
  // Speedup-ladder acceptance rungs. On builds without RSRPA_SIMD the
  // vectorized rungs degenerate to the scalar path, so the ladder is
  // waived (pass) rather than reporting a spurious regression; the
  // accuracy side of the mixed rung (|dE| <= 1e-4 Ha/atom) is enforced by
  // the ctest precision label (PrecisionContract.AllFourBackends...).
  report.add_check("ladder: fused+SIMD >= 1.2x over fused (one core)",
                   !simd_compiled || simd_speedup >= 1.2);
  report.add_check("ladder: fused+SIMD+mixed >= 1.5x over fused (one core)",
                   !simd_compiled || mixed_speedup >= 1.5);
  report.add_check("product grid: SIMD rows >= 1.5x over scalar on 11^3",
                   !simd_compiled || product11 >= 1.5);
  return report.finish();
}
