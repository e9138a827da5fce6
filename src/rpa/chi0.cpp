#include "rpa/chi0.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "obs/event_log.hpp"
#include "sched/parallel_for.hpp"
#include "solver/galerkin_guess.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::rpa {

namespace {

// Column grain for the Hadamard-product loops (RHS build, complex
// promotion, accumulation): writes are disjoint per column, so the
// fan-out is bitwise identical to the serial loops at any thread count.
std::size_t column_grain(std::size_t rows) {
  constexpr std::size_t kElemsPerTask = 1u << 17;
  return kElemsPerTask / std::max<std::size_t>(rows, 1) + 1;
}

// Orbital solves in flight at once: one per pool lane, capped by the
// caller's task quota and by the orbital count.
std::size_t orbital_lanes(std::size_t n_occ) {
  std::size_t lanes = static_cast<std::size_t>(sched::global_pool().threads());
  if (const int quota = sched::current_task_quota(); quota > 0)
    lanes = std::min(lanes, static_cast<std::size_t>(quota));
  return std::min(lanes, n_occ);
}

// One in-flight orbital's buffers and telemetry. Allocated once per apply
// and reused by every wave.
struct OrbitalSlot {
  la::Matrix<la::cplx> b, y;
  la::Matrix<double> b_real;
  solver::DynamicBlockReport rep;
  obs::EventLog events;
  std::exception_ptr error;
};

}  // namespace

void SternheimerStats::merge(const solver::DynamicBlockReport& rep) {
  for (const auto& [size, count] : rep.block_size_counts())
    block_size_chunks[size] += count;
  total_chunks += static_cast<long>(rep.chunks.size());
  matvec_columns += rep.total_matvec_columns;
  matvec_columns_f32 += rep.total_matvec_columns_f32;
  matvec_bytes += rep.total_matvec_bytes;
  matvec_flops += rep.total_matvec_flops;
  seconds += rep.total_seconds;
  all_converged = all_converged && rep.all_converged;
  restarts += rep.total_restarts;
  deflations += rep.total_deflations;
  solver_swaps += rep.total_solver_swaps;
  quarantined_columns += static_cast<long>(rep.quarantined_columns.size());
  quarantined_column_indices.insert(quarantined_column_indices.end(),
                                    rep.quarantined_columns.begin(),
                                    rep.quarantined_columns.end());
}

void SternheimerStats::merge(const SternheimerStats& other, long col0) {
  for (const auto& [size, count] : other.block_size_chunks)
    block_size_chunks[size] += count;
  total_chunks += other.total_chunks;
  matvec_columns += other.matvec_columns;
  matvec_columns_f32 += other.matvec_columns_f32;
  matvec_bytes += other.matvec_bytes;
  matvec_flops += other.matvec_flops;
  seconds += other.seconds;
  all_converged = all_converged && other.all_converged;
  restarts += other.restarts;
  deflations += other.deflations;
  solver_swaps += other.solver_swaps;
  quarantined_columns += other.quarantined_columns;
  for (long c : other.quarantined_column_indices)
    quarantined_column_indices.push_back(c + col0);
}

Chi0Applier::Chi0Applier(const dft::KsSystem& sys, SternheimerOptions opts)
    : sys_(sys), opts_(opts) {
  RSRPA_REQUIRE(sys_.n_occ() >= 1);
}

void Chi0Applier::apply(const la::Matrix<double>& v, la::Matrix<double>& out,
                        double omega, SternheimerStats* stats,
                        obs::EventLog* events) const {
  const std::size_t n = sys_.n_grid();
  const std::size_t s = v.cols();
  RSRPA_REQUIRE(v.rows() == n && out.rows() == n && out.cols() == s);
  RSRPA_REQUIRE_MSG(omega > 0.0,
                    "chi0(i omega): omega must be positive (the omega = 0 "
                    "coefficient matrix is singular)");

  solver::DynamicBlockOptions dopts;
  dopts.solver.tol = opts_.tol;
  dopts.solver.max_iter = opts_.max_iter;
  dopts.enabled = opts_.dynamic_block;
  dopts.fixed_block = opts_.fixed_block;
  dopts.max_block = opts_.max_block;
  dopts.resilience = opts_.resilience;

  out.zero();
  obs::EventLog* sink = events != nullptr ? events : opts_.events;
  const std::size_t n_occ = sys_.n_occ();
  const std::size_t lanes = orbital_lanes(n_occ);
  std::vector<OrbitalSlot> slots(lanes);
  for (OrbitalSlot& slot : slots) {
    slot.b = la::Matrix<la::cplx>(n, s);
    slot.y = la::Matrix<la::cplx>(n, s);
    slot.b_real = la::Matrix<double>(n, s);
  }
  const std::size_t grain = column_grain(n);

  const ham::Hamiltonian& h = *sys_.h;
  // The operator's per-column cost models: the dynamic-block reports
  // (and through them SternheimerStats) carry modeled bytes/flops.
  dopts.cost = solver::shifted_apply_cost(h);
  dopts.cost_f32 = solver::shifted_apply_cost(h, 4.0);

  // Orbital j's block Sternheimer solve, into its slot. It reads only
  // shared const state, so any number can run concurrently.
  const auto solve = [&](std::size_t j, OrbitalSlot& slot) {
    const double lambda = sys_.eigenvalues[j];
    auto psi = sys_.orbitals.col(j);
    la::Matrix<la::cplx>& b = slot.b;
    la::Matrix<la::cplx>& y = slot.y;
    la::Matrix<double>& b_real = slot.b_real;

    // Right-hand side B_j = -(V . Psi_j), one task per column chunk.
    sched::parallel_for(
        0, s, grain,
        [&](std::size_t c) {
          auto vcol = v.col(c);
          auto bcol = b_real.col(c);
          for (std::size_t i = 0; i < n; ++i) bcol[i] = -vcol[i] * psi[i];
        });

    // Initial guess: Galerkin projection onto the occupied manifold
    // (Eq. 13) or zero.
    if (opts_.galerkin_guess) {
      y = solver::galerkin_initial_guess(sys_.orbitals, sys_.eigenvalues,
                                         lambda, omega, b_real);
    } else {
      y.zero();
    }
    sched::parallel_for(
        0, s, grain,
        [&](std::size_t c) {
          for (std::size_t i = 0; i < n; ++i) b(i, c) = {b_real(i, c), 0.0};
        });

    // Bind the Sternheimer coefficient operator as a first-class object:
    // every solve runs the fused single-sweep pipeline.
    solver::ShiftedHamiltonianOp ham_op(h, lambda, omega);
    solver::BlockOpC op = std::cref(ham_op);
    solver::DynamicBlockOptions jopts = dopts;
    jopts.events = sink != nullptr ? &slot.events : nullptr;
    if (opts_.precision == common::Precision::kMixed) {
      // FP32 inner kernel over the SAME shifted operator; its columns are
      // counted in matvec_columns_f32 and costed with dopts.cost_f32.
      // Fault injection stays on the FP64 outer applies — the ladder's
      // recovery semantics are defined at the residual-replacement
      // boundary, which is where injected faults must surface.
      jopts.solver.mixed_apply = [&ham_op](const la::Matrix<la::cplxf>& in,
                                           la::Matrix<la::cplxf>& o) {
        ham_op.apply_f32(in, o);
      };
    }
    if (opts_.fault.mode != solver::FaultMode::kNone &&
        (opts_.fault.orbital < 0 ||
         static_cast<std::size_t>(opts_.fault.orbital) == j)) {
      // One wrapper per (call, orbital): its apply counter starts at zero
      // for every Sternheimer solve and the stream is derived from the
      // orbital index, so fault placement is independent of the thread
      // schedule and of other orbitals' iteration counts.
      solver::FaultInjectionOptions fopts = opts_.fault;
      fopts.seed = Rng(opts_.fault.seed).derive(j).seed();
      op = solver::FaultInjectingOp(std::move(op), fopts);
    }
    slot.rep = solver::solve_dynamic_block(op, b, y, jopts);
  };
  const auto run = [&](std::size_t j, OrbitalSlot& slot) {
    try {
      solve(j, slot);
    } catch (...) {
      slot.error = std::current_exception();
    }
  };

  // Orbital j's share of the serial reduction, in ascending j: telemetry,
  // then the Eq. (6) term. A failed orbital rethrows here, after its
  // events, so everything merged before it matches the serial loop.
  const double scale = 4.0 / h.grid().dv();
  const auto merge = [&](std::size_t j, OrbitalSlot& slot) {
    if (sink != nullptr) sink->merge(slot.events);
    slot.events.clear();
    if (slot.error) std::rethrow_exception(slot.error);
    if (stats != nullptr) stats->merge(slot.rep);

    // Accumulate (4 / dv) Re(Psi_j . Y_j). Columns are disjoint; the
    // j-accumulation order within each column matches the serial loop.
    auto psi = sys_.orbitals.col(j);
    const la::Matrix<la::cplx>& y = slot.y;
    sched::parallel_for(
        0, s, grain,
        [&](std::size_t c) {
          auto ocol = out.col(c);
          for (std::size_t i = 0; i < n; ++i)
            ocol[i] += scale * psi[i] * y(i, c).real();
        });
  };

  // Waves of `lanes` orbitals: fork, join, reduce in orbital order. A
  // one-orbital wave runs inline, so one lane is the plain serial loop.
  for (std::size_t j0 = 0; j0 < n_occ; j0 += lanes) {
    const std::size_t w = std::min(lanes, n_occ - j0);
    if (w == 1) {
      run(j0, slots[0]);
    } else {
      sched::TaskGroup group;
      for (std::size_t t = 0; t < w; ++t)
        group.run([&, t] { run(j0 + t, slots[t]); });
      group.wait();
    }
    for (std::size_t t = 0; t < w; ++t) merge(j0 + t, slots[t]);
  }
}

}  // namespace rsrpa::rpa
