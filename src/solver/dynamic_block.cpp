#include "solver/dynamic_block.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "obs/event_log.hpp"
#include "solver/block_cocg.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::solver {

std::map<int, int> DynamicBlockReport::block_size_counts() const {
  std::map<int, int> counts;
  for (const ChunkRecord& c : chunks) ++counts[c.block_size];
  return counts;
}

namespace {

// Solve one chunk of columns [pos, pos + count) through the breakdown
// recovery ladder (solver/resilience.hpp). Every outcome — including a
// rethrown breakdown when the ladder is disabled — is recorded in the
// report first, so no chunk's timing or accounting is ever dropped on the
// unwind.
ChunkRecord solve_chunk(const BlockOpC& a, const la::Matrix<cplx>& b,
                        la::Matrix<cplx>& y, std::size_t pos,
                        std::size_t count, const DynamicBlockOptions& opts,
                        DynamicBlockReport& rep) {
  ChunkRecord rec;
  rec.block_size = static_cast<int>(count);
  rec.n_rhs = static_cast<int>(count);

  WallTimer timer;
  la::Matrix<cplx> bchunk = b.slice_cols(pos, count);
  la::Matrix<cplx> ychunk = y.slice_cols(pos, count);

  auto record = [&](bool rethrowing) {
    rep.total_matvec_columns += rec.matvec_columns;
    rep.total_matvec_columns_f32 += rec.matvec_columns_f32;
    rep.total_matvec_bytes += static_cast<double>(rec.matvec_columns) *
                                  opts.cost.bytes_per_column +
                              static_cast<double>(rec.matvec_columns_f32) *
                                  opts.cost_f32.bytes_per_column;
    rep.total_matvec_flops += static_cast<double>(rec.matvec_columns) *
                                  opts.cost.flops_per_column +
                              static_cast<double>(rec.matvec_columns_f32) *
                                  opts.cost_f32.flops_per_column;
    rec.seconds = timer.seconds();
    rep.total_seconds += rec.seconds;
    rep.total_restarts += rec.restarts;
    rep.total_deflations += rec.deflations;
    rep.total_solver_swaps += rec.solver_swaps;
    rep.all_converged = rep.all_converged && rec.converged && !rethrowing;
    rep.chunks.push_back(rec);
  };

  try {
    ResilientSolveResult r = resilient_block_solve(
        a, bchunk, ychunk, opts.solver, opts.resilience, pos, opts.events);
    rec.iterations = r.report.iterations;
    rec.converged = r.report.converged;
    rec.matvec_columns = r.report.matvec_columns;
    rec.matvec_columns_f32 = r.report.matvec_columns_f32;
    rec.restarts = r.restarts;
    rec.deflations = r.deflations;
    rec.solver_swaps = r.solver_swaps;
    rec.quarantined = static_cast<int>(r.quarantined.size());
    rec.fallback = rec.deflations > 0 || rec.solver_swaps > 0;
    rep.quarantined_columns.insert(rep.quarantined_columns.end(),
                                   r.quarantined.begin(), r.quarantined.end());
  } catch (const NumericalBreakdown&) {
    // Only reachable with the ladder disabled, since quarantine ends
    // every ladder run. Record the chunk as failed — timing and position
    // survive in the report even though the exception propagates.
    rec.converged = false;
    rec.fallback = true;
    y.set_cols(pos, ychunk);
    record(/*rethrowing=*/true);
    throw;
  }
  y.set_cols(pos, ychunk);
  record(/*rethrowing=*/false);
  return rec;
}

}  // namespace

DynamicBlockReport solve_dynamic_block(const BlockOpC& a,
                                       const la::Matrix<cplx>& b,
                                       la::Matrix<cplx>& y,
                                       const DynamicBlockOptions& opts) {
  const std::size_t n_rhs = b.cols();
  RSRPA_REQUIRE(y.cols() == n_rhs && y.rows() == b.rows());
  DynamicBlockReport rep;
  if (n_rhs == 0) return rep;

  const std::size_t cap = opts.max_block > 0
                              ? std::min<std::size_t>(opts.max_block, n_rhs)
                              : n_rhs;
  std::size_t pos = 0;

  if (!opts.enabled) {
    const std::size_t s = std::min<std::size_t>(
        std::max(opts.fixed_block, 1), cap);
    while (pos < n_rhs) {
      const std::size_t count = std::min(s, n_rhs - pos);
      solve_chunk(a, b, y, pos, count, opts, rep);
      pos += count;
    }
    return rep;
  }

  // Algorithm 4. Probe s = 1, then s = 2, doubling while the chunk time
  // at most doubles (per-vector time non-increasing). A chunk that needed
  // recovery (restart, deflation, solver swap, quarantine) reports the
  // wall time of the recovery work, not of a representative block solve,
  // so it never feeds the timing probe — a poisoned probe would skew the
  // doubling decision for the rest of the batch. On a clean run the chunk
  // sequence below is identical to the pre-ladder code path.
  std::size_t s = 1;
  double t_old = -1.0;
  while (pos < n_rhs) {
    ChunkRecord first = solve_chunk(a, b, y, pos, 1, opts, rep);
    pos += static_cast<std::size_t>(first.n_rhs);
    if (!first.recovered()) {
      t_old = first.seconds;
      break;
    }
  }

  if (t_old >= 0.0 && pos < n_rhs && cap >= 2) {
    s = 2;
    double t_new = -1.0;
    while (pos < n_rhs) {
      const std::size_t count = std::min<std::size_t>(2, n_rhs - pos);
      ChunkRecord second = solve_chunk(a, b, y, pos, count, opts, rep);
      pos += static_cast<std::size_t>(second.n_rhs);
      if (second.recovered()) continue;  // poisoned probe: try again
      if (second.n_rhs < 2) break;       // short tail is not a fair probe
      t_new = second.seconds;
      break;
    }

    if (t_new >= 0.0) {
      while (pos < n_rhs) {
        if (t_new <= 2.0 * t_old && 2 * s <= cap) {
          s *= 2;
          t_old = t_new;
          const std::size_t count = std::min(s, n_rhs - pos);
          ChunkRecord rec = solve_chunk(a, b, y, pos, count, opts, rep);
          pos += count;
          if (rec.recovered()) {
            // Unusable timing: revert to the last proven size and stop
            // growing rather than double on recovery wall time.
            s /= 2;
            break;
          }
          t_new = rec.seconds;
          // A short tail chunk is not a fair probe; stop growing after it.
          if (count < s) break;
        } else {
          if (t_new > 2.0 * t_old) s = std::max<std::size_t>(1, s / 2);
          break;
        }
      }
    }
  }

  // Solve everything remaining at the selected size.
  while (pos < n_rhs) {
    const std::size_t count = std::min(s, n_rhs - pos);
    solve_chunk(a, b, y, pos, count, opts, rep);
    pos += count;
  }
  return rep;
}

}  // namespace rsrpa::solver
