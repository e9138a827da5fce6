// Fixed-size thread pool with per-worker work-stealing deques — the
// execution substrate behind sched::TaskGroup / parallel_for and,
// through them, the concurrent stages of the RPA
// drivers (the occupied-orbital Sternheimer solves of one rpa/chi0 apply,
// la/blas tiled GEMM).
//
// Lane model: a pool configured for `threads` lanes spawns `threads - 1`
// worker threads; the caller thread is the last lane and participates by
// help-running queued tasks inside TaskGroup::wait(). `threads == 1` is
// the guaranteed-serial INLINE mode — no threads are spawned, no queues
// are touched, and every task runs immediately on the caller in submission
// order, which is what makes single-threaded runs exactly reproduce the
// pre-sched serial code path.
//
// Queue discipline: a worker pushes and pops its own deque at the back
// (LIFO, cache-warm); idle workers and helping callers steal from other
// deques at the front (FIFO, oldest first). Submissions from non-worker
// threads land in a shared external deque that workers also steal from.
//
// Determinism: the pool itself makes no ordering promises — determinism
// at any thread count is a property of the algorithms on top (disjoint
// writes in parallel_for, reductions combined serially in a fixed
// order), never of scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "sched/pool_stats.hpp"

namespace rsrpa::sched {

struct SchedOptions {
  /// Total concurrency (workers + caller lane). 0 = auto: the
  /// RSRPA_THREADS environment variable if set to a positive integer,
  /// otherwise std::thread::hardware_concurrency().
  int threads = 0;
};

/// Parse a thread-count spec ("4"). Returns 0 for null/empty/non-numeric/
/// non-positive input (meaning "not specified").
int parse_threads(const char* spec);

/// Resolve SchedOptions::threads to a concrete lane count >= 1.
int resolve_threads(const SchedOptions& opts);

class TaskGroup;

// ----------------------------- task quotas -----------------------------
//
// A task quota caps how many tasks a single parallel region may fork onto
// the shared pool, so one caller (a quota'd service job) cannot fan out
// over every lane while other callers wait. The quota is a thread-local
// value inherited by every TaskGroup built on the thread and re-installed
// on whichever worker thread runs the group's tasks — so nested parallel
// loops inside a quota'd region are capped too, no matter which lane they
// execute on. 0 means unlimited (the default).
//
// parallel_for_range honors the quota by enlarging its grain until at most
// `quota` chunk tasks are forked. That is bitwise-safe: the contract of
// parallel_for already requires each index to perform the same FP work
// regardless of chunking. The cap is per parallel region, not a
// hard global thread count: independent nested regions of one job can
// momentarily overlap, but the fan-out of each is bounded.

/// Task quota of the current thread (inherited by new TaskGroups).
/// 0 = unlimited.
[[nodiscard]] int current_task_quota();

/// RAII quota installer for the calling thread: parallel regions entered
/// while the scope is alive fork at most `quota` tasks each (0 restores
/// unlimited). Service job runners wrap each job in one of these.
class TaskQuotaScope {
 public:
  explicit TaskQuotaScope(int quota);
  ~TaskQuotaScope();
  TaskQuotaScope(const TaskQuotaScope&) = delete;
  TaskQuotaScope& operator=(const TaskQuotaScope&) = delete;

 private:
  int prev_ = 0;
};

class ThreadPool {
 public:
  /// `threads` as in SchedOptions (0 = auto-resolve).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured lane count (>= 1).
  [[nodiscard]] int threads() const { return n_lanes_; }
  /// True in inline mode: tasks run on the caller, nothing is queued.
  [[nodiscard]] bool serial() const { return n_lanes_ == 1; }

  [[nodiscard]] PoolStats stats() const;
  void reset_stats();

  // ----- task plumbing (used by TaskGroup and the parallel algorithms) --

  /// Queue a task for the workers. `group` receives completion and
  /// exception notifications; it must outlive the task.
  void submit(std::function<void()> fn, TaskGroup* group);

  /// Run a task immediately on the calling thread (inline mode), with the
  /// same group bookkeeping as a queued task.
  void execute_now(std::function<void()> fn, TaskGroup* group);

  /// Try to run one queued task on the calling thread. Returns false if
  /// no task was available. This is the help-join primitive: waiting
  /// callers drain the queues instead of idling, so nested TaskGroups on
  /// worker threads cannot deadlock the pool.
  bool help_one();

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    WallTimer queued;  ///< started at submission; read at dequeue
  };

  struct LaneStats {
    std::atomic<long> tasks{0};
    std::atomic<long> steals{0};
    std::atomic<long> inline_tasks{0};
    std::atomic<double> busy_seconds{0.0};
    std::atomic<double> queue_seconds{0.0};
  };

  struct Deque {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t worker_index);
  /// Pop from the lane's own deque (back) or steal (front) from the
  /// others. `lane` may be the caller lane (owns the external deque).
  bool take_task(std::size_t lane, Task& out, bool& stolen);
  void run_task(Task&& task, std::size_t lane, bool stolen);
  [[nodiscard]] std::size_t caller_lane() const {
    return static_cast<std::size_t>(n_lanes_) - 1;
  }

  int n_lanes_ = 1;  ///< workers + 1 caller lane
  // deques_[w] for worker w in [0, n_lanes_-1); deques_[n_lanes_-1] is the
  // shared external deque fed by non-worker threads.
  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::unique_ptr<LaneStats>> lane_stats_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<long> queued_{0};
  std::atomic<bool> stop_{false};
};

/// The process-wide pool used by default throughout the library.
///
/// First-use contract: the pool is built lazily, on the FIRST call, from
/// SchedOptions{} — i.e. RSRPA_THREADS if set, else the hardware count —
/// and its size is then fixed for the pool's lifetime. Later changes to
/// the environment have no effect; the only way to resize is
/// set_global_threads(), which is safe ONLY while no other thread is
/// using the pool (startup, single-threaded tests). Multi-tenant callers
/// therefore never resize the pool per job — they bound each job's share
/// of it with a TaskQuotaScope instead.
ThreadPool& global_pool();

/// Replace the global pool with one of `threads` lanes (0 = auto).
/// Intended for startup, benches and tests; not safe while other threads
/// are concurrently using the previous global pool.
void set_global_threads(int threads);

}  // namespace rsrpa::sched
