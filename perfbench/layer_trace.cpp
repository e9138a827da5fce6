#include "layer_trace.hpp"

#include <atomic>
#include <filesystem>
#include <system_error>

#include "common/timer.hpp"
#include "direct/dense.hpp"
#include "io/checkpoint.hpp"
#include "poisson/kronecker.hpp"
#include "rpa/nu_chi0.hpp"
#include "rpa/ssa.hpp"
#include "solver/dynamic_block.hpp"

// The SYM_* mangled names come from CMakeLists.txt (RPABENCH_WRAPPED), the
// same list that sets the linker's --wrap options.

namespace perfbench {

namespace {

struct Bucket {
  std::atomic<double> seconds{0.0};
  std::atomic<long> columns{0};
};

std::atomic<bool> g_tracing{false};
std::array<Bucket, static_cast<std::size_t>(Layer::kCount)> g_buckets;

struct SolverBuckets {
  std::atomic<long> chunks{0};
  std::atomic<long> block1_chunks{0};
  std::atomic<long> matvec_columns{0};
  std::atomic<long> matvec_columns_f32{0};
  std::atomic<double> bytes_modeled{0.0};
  std::atomic<double> flops_modeled{0.0};
  std::atomic<long> retries{0};
  std::atomic<long> quarantined{0};
} g_solver;

std::atomic<double> g_checkpoint_bytes{0.0};

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

/// Adds its lifetime and `columns` to a layer's bucket.
class Span {
 public:
  Span(Layer layer, std::size_t columns)
      : bucket_(g_buckets[static_cast<std::size_t>(layer)]) {
    bucket_.columns.fetch_add(static_cast<long>(columns),
                              std::memory_order_relaxed);
  }
  ~Span() { rsrpa::atomic_add_seconds(bucket_.seconds, timer_.seconds()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Bucket& bucket_;
  rsrpa::WallTimer timer_;
};

void fold(const rsrpa::solver::DynamicBlockReport& rep) {
  long block1 = 0, retries = 0;
  for (const rsrpa::solver::ChunkRecord& c : rep.chunks) {
    if (c.block_size == 1) ++block1;
    retries += c.restarts + c.deflations + c.solver_swaps;
  }
  g_solver.chunks.fetch_add(static_cast<long>(rep.chunks.size()));
  g_solver.block1_chunks.fetch_add(block1);
  g_solver.matvec_columns.fetch_add(rep.total_matvec_columns);
  g_solver.matvec_columns_f32.fetch_add(rep.total_matvec_columns_f32);
  rsrpa::atomic_add_seconds(g_solver.bytes_modeled, rep.total_matvec_bytes);
  rsrpa::atomic_add_seconds(g_solver.flops_modeled, rep.total_matvec_flops);
  g_solver.retries.fetch_add(retries);
  g_solver.quarantined.fetch_add(
      static_cast<long>(rep.quarantined_columns.size()));
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on); }

void reset_trace() {
  for (Bucket& b : g_buckets) {
    b.seconds = 0.0;
    b.columns = 0;
  }
  g_solver.chunks = 0;
  g_solver.block1_chunks = 0;
  g_solver.matvec_columns = 0;
  g_solver.matvec_columns_f32 = 0;
  g_solver.bytes_modeled = 0.0;
  g_solver.flops_modeled = 0.0;
  g_solver.retries = 0;
  g_solver.quarantined = 0;
  g_checkpoint_bytes = 0.0;
}

TraceSnapshot trace_snapshot() {
  TraceSnapshot s;
  for (std::size_t i = 0; i < g_buckets.size(); ++i)
    s.layers[i] = {g_buckets[i].seconds.load(), g_buckets[i].columns.load()};
  s.solver = {g_solver.chunks.load(),         g_solver.block1_chunks.load(),
              g_solver.matvec_columns.load(), g_solver.matvec_columns_f32.load(),
              g_solver.bytes_modeled.load(),  g_solver.flops_modeled.load(),
              g_solver.retries.load(),        g_solver.quarantined.load()};
  s.checkpoint_bytes = g_checkpoint_bytes.load();
  return s;
}

}  // namespace perfbench

// ------------------------------------------------------------------------
// The shims. Each __real_ declaration names the library's own definition;
// each __wrap_ definition receives the library's cross-object calls.
// Member functions take `this` as their first parameter (Itanium ABI).

using perfbench::Layer;
using perfbench::Span;
using perfbench::tracing;
namespace la = rsrpa::la;
namespace rpa = rsrpa::rpa;
namespace solver = rsrpa::solver;
using la::cplx;

void real_nu_chi0(const rpa::NuChi0Operator*, const la::Matrix<double>&,
                  la::Matrix<double>&, double, rpa::SternheimerStats*,
                  rsrpa::KernelTimers*, rsrpa::obs::EventLog*)
    __asm__("__real_" SYM_NU_CHI0);
void wrap_nu_chi0(const rpa::NuChi0Operator*, const la::Matrix<double>&,
                  la::Matrix<double>&, double, rpa::SternheimerStats*,
                  rsrpa::KernelTimers*, rsrpa::obs::EventLog*)
    __asm__("__wrap_" SYM_NU_CHI0);
void wrap_nu_chi0(const rpa::NuChi0Operator* self, const la::Matrix<double>& in,
                  la::Matrix<double>& out, double omega,
                  rpa::SternheimerStats* stats, rsrpa::KernelTimers* timers,
                  rsrpa::obs::EventLog* events) {
  if (!tracing()) return real_nu_chi0(self, in, out, omega, stats, timers, events);
  Span span(Layer::kNuChi0Apply, in.cols());
  real_nu_chi0(self, in, out, omega, stats, timers, events);
}

void real_chi0(const rpa::Chi0Applier*, const la::Matrix<double>&,
               la::Matrix<double>&, double, rpa::SternheimerStats*,
               rsrpa::obs::EventLog*) __asm__("__real_" SYM_CHI0);
void wrap_chi0(const rpa::Chi0Applier*, const la::Matrix<double>&,
               la::Matrix<double>&, double, rpa::SternheimerStats*,
               rsrpa::obs::EventLog*) __asm__("__wrap_" SYM_CHI0);
void wrap_chi0(const rpa::Chi0Applier* self, const la::Matrix<double>& v,
               la::Matrix<double>& out, double omega,
               rpa::SternheimerStats* stats, rsrpa::obs::EventLog* events) {
  if (!tracing()) return real_chi0(self, v, out, omega, stats, events);
  Span span(Layer::kChi0Apply, v.cols());
  real_chi0(self, v, out, omega, stats, events);
}

solver::DynamicBlockReport real_solve(const solver::BlockOpC&,
                                      const la::Matrix<cplx>&,
                                      la::Matrix<cplx>&,
                                      const solver::DynamicBlockOptions&)
    __asm__("__real_" SYM_SOLVE);
solver::DynamicBlockReport wrap_solve(const solver::BlockOpC&,
                                      const la::Matrix<cplx>&,
                                      la::Matrix<cplx>&,
                                      const solver::DynamicBlockOptions&)
    __asm__("__wrap_" SYM_SOLVE);
solver::DynamicBlockReport wrap_solve(const solver::BlockOpC& a,
                                      const la::Matrix<cplx>& b,
                                      la::Matrix<cplx>& y,
                                      const solver::DynamicBlockOptions& opts) {
  if (!tracing()) return real_solve(a, b, y, opts);
  Span span(Layer::kSolve, b.cols());
  // Drive the solver through timing operators, so the operator's share of
  // the solve (FP64 and FP32 alike) is separable from the recurrence.
  const solver::BlockOpC timed = [&a](const la::Matrix<cplx>& in,
                                      la::Matrix<cplx>& out) {
    Span op_span(Layer::kSolveOp, in.cols());
    a(in, out);
  };
  solver::DynamicBlockOptions timed_opts = opts;
  if (opts.solver.mixed_apply)
    timed_opts.solver.mixed_apply = [&opts](const la::Matrix<la::cplxf>& in,
                                            la::Matrix<la::cplxf>& out) {
      Span op_span(Layer::kSolveOp, in.cols());
      opts.solver.mixed_apply(in, out);
    };
  solver::DynamicBlockReport rep = real_solve(timed, b, y, timed_opts);
  perfbench::fold(rep);
  return rep;
}

void real_ham_apply(const solver::ShiftedHamiltonianOp*,
                    const la::Matrix<cplx>&, la::Matrix<cplx>&)
    __asm__("__real_" SYM_HAM_APPLY);
void wrap_ham_apply(const solver::ShiftedHamiltonianOp*,
                    const la::Matrix<cplx>&, la::Matrix<cplx>&)
    __asm__("__wrap_" SYM_HAM_APPLY);
void wrap_ham_apply(const solver::ShiftedHamiltonianOp* self,
                    const la::Matrix<cplx>& in, la::Matrix<cplx>& out) {
  if (!tracing()) return real_ham_apply(self, in, out);
  Span span(Layer::kHamApply, in.cols());
  real_ham_apply(self, in, out);
}

void real_ham_apply_f32(const solver::ShiftedHamiltonianOp*,
                        const la::Matrix<la::cplxf>&, la::Matrix<la::cplxf>&)
    __asm__("__real_" SYM_HAM_APPLY_F32);
void wrap_ham_apply_f32(const solver::ShiftedHamiltonianOp*,
                        const la::Matrix<la::cplxf>&, la::Matrix<la::cplxf>&)
    __asm__("__wrap_" SYM_HAM_APPLY_F32);
void wrap_ham_apply_f32(const solver::ShiftedHamiltonianOp* self,
                        const la::Matrix<la::cplxf>& in,
                        la::Matrix<la::cplxf>& out) {
  if (!tracing()) return real_ham_apply_f32(self, in, out);
  Span span(Layer::kHamApplyF32, in.cols());
  real_ham_apply_f32(self, in, out);
}

void real_nu_sqrt(const rsrpa::poisson::KroneckerLaplacian*,
                  la::Matrix<double>&) __asm__("__real_" SYM_NU_SQRT);
void wrap_nu_sqrt(const rsrpa::poisson::KroneckerLaplacian*,
                  la::Matrix<double>&) __asm__("__wrap_" SYM_NU_SQRT);
void wrap_nu_sqrt(const rsrpa::poisson::KroneckerLaplacian* self,
                  la::Matrix<double>& v) {
  if (!tracing()) return real_nu_sqrt(self, v);
  Span span(Layer::kNuSqrt, v.cols());
  real_nu_sqrt(self, v);
}

rpa::SsaProjection real_ssa(const solver::BlockOpR&, const la::Matrix<double>&,
                            double, rsrpa::obs::EventLog*, double)
    __asm__("__real_" SYM_SSA);
rpa::SsaProjection wrap_ssa(const solver::BlockOpR&, const la::Matrix<double>&,
                            double, rsrpa::obs::EventLog*, double)
    __asm__("__wrap_" SYM_SSA);
rpa::SsaProjection wrap_ssa(const solver::BlockOpR& apply,
                            const la::Matrix<double>& basis, double omega,
                            rsrpa::obs::EventLog* events, double aug_target) {
  if (!tracing()) return real_ssa(apply, basis, omega, events, aug_target);
  Span span(Layer::kSsaProject, basis.cols());
  return real_ssa(apply, basis, omega, events, aug_target);
}

la::EigResult real_full_diag(const rsrpa::ham::Hamiltonian&)
    __asm__("__real_" SYM_FULL_DIAG);
la::EigResult wrap_full_diag(const rsrpa::ham::Hamiltonian&)
    __asm__("__wrap_" SYM_FULL_DIAG);
la::EigResult wrap_full_diag(const rsrpa::ham::Hamiltonian& h) {
  if (!tracing()) return real_full_diag(h);
  Span span(Layer::kFullDiag, 0);
  return real_full_diag(h);
}

std::vector<double> real_direct_point(const la::EigResult&, std::size_t,
                                      double,
                                      const rsrpa::poisson::KroneckerLaplacian&,
                                      double) __asm__("__real_" SYM_DIRECT_POINT);
std::vector<double> wrap_direct_point(const la::EigResult&, std::size_t,
                                      double,
                                      const rsrpa::poisson::KroneckerLaplacian&,
                                      double) __asm__("__wrap_" SYM_DIRECT_POINT);
std::vector<double> wrap_direct_point(
    const la::EigResult& eig, std::size_t n_occ, double omega,
    const rsrpa::poisson::KroneckerLaplacian& klap, double dv) {
  if (!tracing()) return real_direct_point(eig, n_occ, omega, klap, dv);
  Span span(Layer::kDirectPoint, 0);
  return real_direct_point(eig, n_occ, omega, klap, dv);
}

void real_ckpt_save(const std::string&, const rsrpa::io::RunCheckpoint&)
    __asm__("__real_" SYM_CKPT_SAVE);
void wrap_ckpt_save(const std::string&, const rsrpa::io::RunCheckpoint&)
    __asm__("__wrap_" SYM_CKPT_SAVE);
void wrap_ckpt_save(const std::string& path,
                    const rsrpa::io::RunCheckpoint& ck) {
  if (!tracing()) return real_ckpt_save(path, ck);
  {
    Span span(Layer::kCheckpointSave, 0);
    real_ckpt_save(path, ck);
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  if (!ec)
    rsrpa::atomic_add_seconds(perfbench::g_checkpoint_bytes,
                              static_cast<double>(bytes));
}

rsrpa::io::RunCheckpoint real_ckpt_load(const std::string&, std::uint64_t)
    __asm__("__real_" SYM_CKPT_LOAD);
rsrpa::io::RunCheckpoint wrap_ckpt_load(const std::string&, std::uint64_t)
    __asm__("__wrap_" SYM_CKPT_LOAD);
rsrpa::io::RunCheckpoint wrap_ckpt_load(const std::string& path,
                                        std::uint64_t fingerprint) {
  if (!tracing()) return real_ckpt_load(path, fingerprint);
  Span span(Layer::kCheckpointLoad, 0);
  return real_ckpt_load(path, fingerprint);
}
