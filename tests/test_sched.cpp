// Unit tests for the sched task-parallel runtime: thread-count
// resolution, inline (serial) mode, fork/join with exception
// propagation, parallel_for coverage, and pool statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/sched.hpp"

namespace rsrpa::sched {
namespace {

TEST(ParseThreads, AcceptsPositiveIntegers) {
  EXPECT_EQ(parse_threads("1"), 1);
  EXPECT_EQ(parse_threads("4"), 4);
  EXPECT_EQ(parse_threads("128"), 128);
}

TEST(ParseThreads, RejectsEverythingElse) {
  EXPECT_EQ(parse_threads(nullptr), 0);
  EXPECT_EQ(parse_threads(""), 0);
  EXPECT_EQ(parse_threads("0"), 0);
  EXPECT_EQ(parse_threads("-3"), 0);
  EXPECT_EQ(parse_threads("abc"), 0);
  EXPECT_EQ(parse_threads("4x"), 0);   // trailing garbage
  EXPECT_EQ(parse_threads(" 4"), 0);   // leading whitespace
  EXPECT_EQ(parse_threads("3.5"), 0);
}

TEST(ResolveThreads, ExplicitCountWins) {
  ::setenv("RSRPA_THREADS", "7", 1);
  SchedOptions opts;
  opts.threads = 3;
  EXPECT_EQ(resolve_threads(opts), 3);
  ::unsetenv("RSRPA_THREADS");
}

TEST(ResolveThreads, EnvironmentOverridesAuto) {
  ::setenv("RSRPA_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(SchedOptions{}), 5);
  ::setenv("RSRPA_THREADS", "garbage", 1);
  EXPECT_GE(resolve_threads(SchedOptions{}), 1);  // falls back to hardware
  ::unsetenv("RSRPA_THREADS");
}

TEST(ThreadPool, InlineModeRunsOnCallerInOrder) {
  ThreadPool pool(1);
  EXPECT_TRUE(pool.serial());
  EXPECT_EQ(pool.threads(), 1);

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i)
    group.run([&order, caller, i] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
  // Inline mode: every task already ran at submission.
  EXPECT_EQ(group.pending(), 0);
  group.wait();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);

  const PoolStats s = pool.stats();
  EXPECT_EQ(s.threads, 1);
  EXPECT_EQ(s.tasks, 8);
  EXPECT_EQ(s.inline_tasks, 8);
  EXPECT_EQ(s.steals, 0);
}

TEST(ThreadPool, RunsEveryTaskConcurrently) {
  ThreadPool pool(4);
  EXPECT_FALSE(pool.serial());
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  TaskGroup group(pool);
  for (int i = 0; i < kTasks; ++i)
    group.run([&hits, i] { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  group.wait();
  for (int i = 0; i < kTasks; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.tasks, kTasks);
  EXPECT_EQ(s.threads, 4);
  EXPECT_EQ(s.worker_tasks.size(), 4u);
  long sum = 0;
  for (long t : s.worker_tasks) sum += t;
  EXPECT_EQ(sum, s.tasks);
}

TEST(TaskGroup, WaitRethrowsTaskException) {
  ThreadPool pool(3);
  TaskGroup group(pool);
  group.run([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The error is consumed: a second wait() is clean.
  group.wait();
}

TEST(TaskGroup, InlineModeDefersExceptionToWait) {
  ThreadPool pool(1);
  TaskGroup group(pool);
  bool later_ran = false;
  EXPECT_NO_THROW(group.run([] { throw std::runtime_error("boom"); }));
  // Tasks submitted after a failed one still execute (inline mode).
  group.run([&later_ran] { later_ran = true; });
  EXPECT_TRUE(later_ran);
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(TaskGroup, NestsInsideWorkerTasks) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 8; ++i)
    outer.run([&pool, &total] {
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) inner.run([&total] { total.fetch_add(1); });
      inner.wait();
    });
  outer.wait();
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, 7, [&hits](std::size_t i) { hits[i].fetch_add(1); },
               pool);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeAndZeroGrainAreSafe) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(5, 5, 4, [&calls](std::size_t) { ++calls; }, pool);
  EXPECT_EQ(calls, 0);
  // grain 0 is clamped to 1, not a division hazard.
  std::vector<std::atomic<int>> hits(3);
  parallel_for(0, 3, 0, [&hits](std::size_t i) { hits[i].fetch_add(1); },
               pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForRange, ChunksAreDisjointAndGrainBounded) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 103, kGrain = 10;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_range(
      0, kN, kGrain,
      [&](std::size_t b, std::size_t e) {
        std::lock_guard<std::mutex> lk(mu);
        chunks.emplace_back(b, e);
      },
      pool);
  std::set<std::size_t> seen;
  for (const auto& [b, e] : chunks) {
    EXPECT_LE(e - b, kGrain);
    for (std::size_t i = b; i < e; ++i) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), kN);
}

TEST(PoolStats, SinceSubtractsBaseline) {
  ThreadPool pool(1);
  TaskGroup g1(pool);
  for (int i = 0; i < 3; ++i) g1.run([] {});
  g1.wait();
  const PoolStats base = pool.stats();

  TaskGroup g2(pool);
  for (int i = 0; i < 2; ++i) g2.run([] {});
  g2.wait();
  const PoolStats delta = pool.stats().since(base);
  EXPECT_EQ(delta.tasks, 2);
  EXPECT_EQ(delta.inline_tasks, 2);

  // Lane-count mismatch: fall back to the full snapshot, never subtract
  // incompatible vectors.
  PoolStats other;
  other.threads = 99;
  const PoolStats fallback = pool.stats().since(other);
  EXPECT_EQ(fallback.tasks, 5);
}

TEST(PoolStats, ResetClearsCounters) {
  ThreadPool pool(2);
  TaskGroup g(pool);
  for (int i = 0; i < 10; ++i) g.run([] {});
  g.wait();
  EXPECT_EQ(pool.stats().tasks, 10);
  pool.reset_stats();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.tasks, 0);
  EXPECT_EQ(s.steals, 0);
  EXPECT_EQ(s.busy_seconds, 0.0);
}

TEST(GlobalPool, SetGlobalThreadsReconfigures) {
  set_global_threads(3);
  EXPECT_EQ(global_pool().threads(), 3);
  std::atomic<int> total{0};
  parallel_for(0, 50, 1, [&total](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 50);
  set_global_threads(1);
  EXPECT_TRUE(global_pool().serial());
}

}  // namespace
}  // namespace rsrpa::sched
