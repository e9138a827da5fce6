// Work-distribution strategies for the Sternheimer stage — the paper's
// SS V future-work item 2: "a transition to a manager-worker model of
// work distribution would remove any load balancing issue".
//
// Given measured per-item costs (one item = the Sternheimer work of one
// eigenvector column), compare the paper's STATIC contiguous column
// partition against a MANAGER-WORKER queue (each idle worker pulls the
// next item) and against the offline LPT bound. The a7 bench feeds these
// with real measured column times.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace rsrpa::par {

struct ScheduleResult {
  double makespan = 0.0;            ///< modeled parallel time
  std::vector<double> rank_loads;   ///< per-rank total work
  /// makespan / (total work / p): 1.0 = perfectly balanced.
  [[nodiscard]] double imbalance() const;
};

/// The paper's static layout: contiguous blocks of items per rank.
ScheduleResult static_schedule(const std::vector<double>& item_seconds,
                               std::size_t p);

/// Manager-worker: items dispatched in order, each to the worker that
/// becomes free first (the online greedy list schedule).
ScheduleResult manager_worker_schedule(const std::vector<double>& item_seconds,
                                       std::size_t p);

/// Longest-processing-time-first list schedule — the offline near-optimal
/// reference (requires knowing all costs up front).
ScheduleResult lpt_schedule(const std::vector<double>& item_seconds,
                            std::size_t p);

}  // namespace rsrpa::par
