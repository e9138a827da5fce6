// Umbrella header for the task-parallel runtime.
//
// The sched subsystem is the shared-memory concurrency substrate of the
// library: a fixed-size work-stealing ThreadPool, fork/join TaskGroup
// and grain-controlled parallel_for. Compute layers (par, rpa, la)
// include this header; thread count comes from SchedOptions / RSRPA_THREADS, and a 1-lane
// pool degenerates to exact serial execution.
#pragma once

#include "sched/parallel_for.hpp"    // IWYU pragma: export
#include "sched/pool_stats.hpp"      // IWYU pragma: export
#include "sched/task_group.hpp"      // IWYU pragma: export
#include "sched/thread_pool.hpp"     // IWYU pragma: export
