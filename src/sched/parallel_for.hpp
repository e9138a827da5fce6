// Data-parallel loops with explicit grain-size control.
//
// parallel_for_range(b, e, grain, body) splits [b, e) into chunks of at
// most `grain` indices and forks one task per chunk; body(cb, ce) handles
// one chunk. parallel_for(b, e, grain, body) is the per-index wrapper.
//
// Determinism contract: the CALLER guarantees chunk bodies write disjoint
// state (distinct columns, distinct slots). Under that contract results
// are bitwise identical at every thread count — including 1, where the
// chunks run inline in ascending order — because each index performs the
// exact same floating-point operations regardless of which lane runs its
// chunk. For reductions, where the combination ORDER is part of the
// result, write one partial per item to its own slot and combine the
// slots serially in a fixed order instead of accumulating into shared
// state here.
//
// Grain: the smallest unit worth forking. One task per chunk is created
// eagerly (no lazy splitting), so choose grain such that the chunk body
// clearly outweighs ~1 us of queueing overhead. A grain that covers the
// whole range, or a serial pool, short-circuits to a plain loop; without
// an explicit pool, a range within one grain runs inline without looking
// up the global pool at all (the per-call cost of the small GEMMs and
// sweeps inside a Krylov iteration).
#pragma once

#include <algorithm>
#include <cstddef>

#include "sched/task_group.hpp"

namespace rsrpa::sched {

/// body(chunk_begin, chunk_end) over chunks of at most `grain` indices.
template <class Body>
void parallel_for_range(std::size_t begin, std::size_t end, std::size_t grain,
                        Body&& body, ThreadPool& pool) {
  if (end <= begin) return;
  grain = std::max<std::size_t>(grain, 1);
  // Task quota (thread_pool.hpp): fork at most `quota` chunk tasks by
  // enlarging the grain. Bitwise-safe under the parallel_for contract —
  // chunk boundaries never change what any single index computes, only
  // how indices are grouped into tasks.
  if (const int quota = current_task_quota(); quota > 0) {
    const std::size_t cap = static_cast<std::size_t>(quota);
    grain = std::max(grain, (end - begin + cap - 1) / cap);
  }
  if (pool.serial() || end - begin <= grain) {
    body(begin, end);
    return;
  }
  TaskGroup group(pool);
  for (std::size_t b = begin; b < end; b += grain) {
    const std::size_t e = std::min(b + grain, end);
    group.run([&body, b, e] { body(b, e); });
  }
  group.wait();
}

/// The same on the global pool. The quota only ever enlarges the grain,
/// so a range within one grain runs inline here exactly as it would there.
template <class Body>
void parallel_for_range(std::size_t begin, std::size_t end, std::size_t grain,
                        Body&& body) {
  if (end <= begin) return;
  if (end - begin <= std::max<std::size_t>(grain, 1)) {
    body(begin, end);
    return;
  }
  parallel_for_range(begin, end, grain, body, global_pool());
}

/// body(i) for every i in [begin, end), forked in chunks of `grain`.
template <class Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Body&& body, ThreadPool& pool) {
  parallel_for_range(
      begin, end, grain,
      [&body](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) body(i);
      },
      pool);
}

template <class Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Body&& body) {
  parallel_for_range(begin, end, grain,
                     [&body](std::size_t b, std::size_t e) {
                       for (std::size_t i = b; i < e; ++i) body(i);
                     });
}

}  // namespace rsrpa::sched
