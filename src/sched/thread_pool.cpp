#include "sched/thread_pool.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "sched/task_group.hpp"

namespace rsrpa::sched {

namespace {

// Which pool (if any) the current thread is a worker of, and its lane.
// Thread-locals rather than pool members so multiple pools coexist (the
// stress tests build private pools next to the global one).
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_lane = 0;

// Per-thread task quota (see thread_pool.hpp, "task quotas"). Set by
// TaskQuotaScope on job-runner threads and re-installed around each task
// by TaskGroup::run_task so nested parallel regions inherit it on
// whichever lane executes them.
thread_local int tls_quota = 0;

}  // namespace

int current_task_quota() { return tls_quota; }

TaskQuotaScope::TaskQuotaScope(int quota) : prev_(tls_quota) {
  tls_quota = quota > 0 ? quota : 0;
}

TaskQuotaScope::~TaskQuotaScope() { tls_quota = prev_; }

int parse_threads(const char* spec) {
  if (spec == nullptr || *spec == '\0') return 0;
  int value = 0;
  const char* end = spec + std::strlen(spec);
  auto [ptr, ec] = std::from_chars(spec, end, value);
  if (ec != std::errc{} || ptr != end || value <= 0) return 0;
  return value;
}

int resolve_threads(const SchedOptions& opts) {
  if (opts.threads > 0) return opts.threads;
  if (const int env = parse_threads(std::getenv("RSRPA_THREADS")); env > 0)
    return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) {
  SchedOptions opts;
  opts.threads = threads;
  n_lanes_ = resolve_threads(opts);
  deques_.reserve(static_cast<std::size_t>(n_lanes_));
  lane_stats_.reserve(static_cast<std::size_t>(n_lanes_));
  for (int i = 0; i < n_lanes_; ++i) {
    deques_.push_back(std::make_unique<Deque>());
    lane_stats_.push_back(std::make_unique<LaneStats>());
  }
  // Lanes [0, n_lanes_-1) get worker threads; the last lane is the
  // caller's (its deque is the external submission queue).
  for (std::size_t w = 0; w + 1 < static_cast<std::size_t>(n_lanes_); ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Defensive drain: a correctly used pool has no queued tasks here (every
  // TaskGroup joins in its destructor), but never strand a group.
  Task task;
  bool stolen = false;
  while (take_task(caller_lane(), task, stolen))
    run_task(std::move(task), caller_lane(), stolen);
}

void ThreadPool::submit(std::function<void()> fn, TaskGroup* group) {
  RSRPA_REQUIRE(group != nullptr);
  // Workers push to their own deque (back); foreign threads feed the
  // shared external deque.
  const std::size_t lane =
      tls_pool == this ? tls_lane : caller_lane();
  {
    Deque& dq = *deques_[lane];
    std::lock_guard<std::mutex> lk(dq.mu);
    dq.tasks.push_back(Task{std::move(fn), group, WallTimer{}});
  }
  queued_.fetch_add(1, std::memory_order_release);
  wake_cv_.notify_one();
}

void ThreadPool::execute_now(std::function<void()> fn, TaskGroup* group) {
  RSRPA_REQUIRE(group != nullptr);
  const std::size_t lane = tls_pool == this ? tls_lane : caller_lane();
  LaneStats& ls = *lane_stats_[lane];
  ls.tasks.fetch_add(1, std::memory_order_relaxed);
  ls.inline_tasks.fetch_add(1, std::memory_order_relaxed);
  {
    WallClock busy(ls.busy_seconds);
    group->run_task(fn);
  }
}

bool ThreadPool::take_task(std::size_t lane, Task& out, bool& stolen) {
  // Own deque first, newest task (LIFO keeps nested fork/join depth-first
  // and cache-warm).
  {
    Deque& own = *deques_[lane];
    std::lock_guard<std::mutex> lk(own.mu);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      stolen = false;
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal the OLDEST task from the other lanes, round-robin from the next
  // lane over so victims spread out.
  const std::size_t n = deques_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Deque& victim = *deques_[(lane + k) % n];
    std::lock_guard<std::mutex> lk(victim.mu);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      stolen = true;
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(Task&& task, std::size_t lane, bool stolen) {
  LaneStats& ls = *lane_stats_[lane];
  ls.tasks.fetch_add(1, std::memory_order_relaxed);
  if (stolen) ls.steals.fetch_add(1, std::memory_order_relaxed);
  atomic_add_seconds(ls.queue_seconds, task.queued.seconds());
  WallClock busy(ls.busy_seconds);
  task.group->run_task(task.fn);
}

bool ThreadPool::help_one() {
  const std::size_t lane = tls_pool == this ? tls_lane : caller_lane();
  Task task;
  bool stolen = false;
  if (!take_task(lane, task, stolen)) return false;
  if (tls_pool != this) {
    // A helping caller is not a worker, but steal accounting should still
    // attribute the task to the caller lane.
    LaneStats& ls = *lane_stats_[caller_lane()];
    ls.inline_tasks.fetch_add(1, std::memory_order_relaxed);
  }
  run_task(std::move(task), lane, stolen);
  return true;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  tls_pool = this;
  tls_lane = worker_index;
  while (true) {
    Task task;
    bool stolen = false;
    if (take_task(worker_index, task, stolen)) {
      run_task(std::move(task), worker_index, stolen);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    std::unique_lock<std::mutex> lk(wake_mu_);
    // Timed predicate wait: a submission may race the sleep, so never
    // sleep unbounded on the notification alone.
    wake_cv_.wait_for(lk, std::chrono::milliseconds(1), [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
  }
  tls_pool = nullptr;
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.threads = n_lanes_;
  s.worker_busy_seconds.reserve(lane_stats_.size());
  s.worker_tasks.reserve(lane_stats_.size());
  for (const auto& lane : lane_stats_) {
    const long tasks = lane->tasks.load(std::memory_order_relaxed);
    const double busy = lane->busy_seconds.load(std::memory_order_relaxed);
    s.tasks += tasks;
    s.steals += lane->steals.load(std::memory_order_relaxed);
    s.inline_tasks += lane->inline_tasks.load(std::memory_order_relaxed);
    s.busy_seconds += busy;
    s.queue_seconds += lane->queue_seconds.load(std::memory_order_relaxed);
    s.worker_busy_seconds.push_back(busy);
    s.worker_tasks.push_back(tasks);
  }
  return s;
}

void ThreadPool::reset_stats() {
  for (auto& lane : lane_stats_) {
    lane->tasks.store(0, std::memory_order_relaxed);
    lane->steals.store(0, std::memory_order_relaxed);
    lane->inline_tasks.store(0, std::memory_order_relaxed);
    lane->busy_seconds.store(0.0, std::memory_order_relaxed);
    lane->queue_seconds.store(0.0, std::memory_order_relaxed);
  }
}

// ------------------------------ TaskGroup ------------------------------

TaskGroup::~TaskGroup() {
  // Join without rethrowing: the destructor must not throw, and wait()
  // was the place to observe errors.
  while (pending_.load(std::memory_order_acquire) > 0)
    if (!pool_.help_one()) std::this_thread::yield();
  // The last finisher decrements pending under mu_; acquiring it here
  // guarantees that thread has released the mutex before it is destroyed.
  std::lock_guard<std::mutex> lk(mu_);
}

void TaskGroup::wait() {
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (!pool_.help_one()) {
      std::unique_lock<std::mutex> lk(mu_);
      done_cv_.wait_for(lk, std::chrono::microseconds(200), [this] {
        return pending_.load(std::memory_order_acquire) == 0;
      });
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void TaskGroup::run_task(std::function<void()>& fn) noexcept {
  // Install the group's quota for the duration of the task: the lane may
  // belong to a different (or no) quota'd region, and nested parallel
  // loops inside fn must see the quota of the region that forked them.
  const int saved_quota = tls_quota;
  tls_quota = quota_;
  try {
    fn();
  } catch (...) {
    record_error(std::current_exception());
  }
  tls_quota = saved_quota;
  finish_one();
}

void TaskGroup::record_error(std::exception_ptr e) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!error_) error_ = std::move(e);
}

void TaskGroup::finish_one() {
  // Decrement under the group mutex so a waiter that observes zero and
  // returns cannot destroy the group while this thread still notifies.
  std::lock_guard<std::mutex> lk(mu_);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    done_cv_.notify_all();
}

// ----------------------------- global pool -----------------------------

namespace {
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
// Published copy of g_pool.get(): once the pool exists, global_pool() is
// one acquire load, with no lock on the per-call hot path.
std::atomic<ThreadPool*> g_pool_ptr{nullptr};
}  // namespace

ThreadPool& global_pool() {
  if (ThreadPool* p = g_pool_ptr.load(std::memory_order_acquire)) return *p;
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(0);
    g_pool_ptr.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

void set_global_threads(int threads) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_pool_ptr.store(nullptr, std::memory_order_release);
  g_pool.reset();  // join the old pool before the new one exists
  g_pool = std::make_unique<ThreadPool>(threads);
  g_pool_ptr.store(g_pool.get(), std::memory_order_release);
}

}  // namespace rsrpa::sched
