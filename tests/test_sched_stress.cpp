// Stress suite for the sched runtime, registered under the ctest label
// `sched_stress`. Intended to run under -DRSRPA_SANITIZE=thread
// (-fsanitize=thread) as well as in the regular suite:
//
//   cmake -B build-tsan -S . -DRSRPA_SANITIZE=thread
//   cmake --build build-tsan -j && ctest --test-dir build-tsan -L sched_stress
//
// The tests deliberately oversubscribe the machine, throw under load, and
// force steal-heavy schedules — the conditions where a racy pool breaks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/sched.hpp"

namespace rsrpa::sched {
namespace {

// Far more lanes than this machine has cores: every worker contends for
// the same queues and the wake/sleep path cycles constantly.
TEST(SchedStress, OversubscribedPoolCompletesEverything) {
  const int lanes = static_cast<int>(std::thread::hardware_concurrency()) * 8 + 4;
  ThreadPool pool(lanes);
  constexpr int kRounds = 20, kTasks = 300;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<long> total{0};
    TaskGroup group(pool);
    for (int i = 0; i < kTasks; ++i)
      group.run([&total, i] { total.fetch_add(i, std::memory_order_relaxed); });
    group.wait();
    EXPECT_EQ(total.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
  }
  EXPECT_EQ(pool.stats().tasks, static_cast<long>(kRounds) * kTasks);
}

// Exceptions racing normal completions: exactly one error is kept per
// group, every sibling still runs to completion, and the pool survives to
// serve the next group.
TEST(SchedStress, ExceptionPropagationUnderLoad) {
  ThreadPool pool(8);
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> ran{0};
    TaskGroup group(pool);
    constexpr int kTasks = 64;
    for (int i = 0; i < kTasks; ++i)
      group.run([&ran, i] {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i % 7 == 3) throw std::runtime_error("stress failure");
      });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), kTasks);  // failure never cancels siblings
    // The pool still works after the error round.
    std::atomic<int> ok{0};
    TaskGroup clean(pool);
    for (int i = 0; i < 16; ++i) clean.run([&ok] { ok.fetch_add(1); });
    clean.wait();
    EXPECT_EQ(ok.load(), 16);
  }
}

// All tasks are submitted from the (non-worker) caller into the shared
// external deque, and each task is too small to keep a worker busy — so
// the only way work spreads is stealing. With several workers this must
// record steals and still produce exact results.
TEST(SchedStress, StealHeavySubmissionFromCaller) {
  ThreadPool pool(6);
  constexpr std::size_t kN = 20000;
  std::vector<std::atomic<int>> hits(kN);
  TaskGroup group(pool);
  for (std::size_t i = 0; i < kN; ++i)
    group.run([&hits, i] { hits[i].fetch_add(1, std::memory_order_relaxed); });
  group.wait();
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.tasks, static_cast<long>(kN));
  // Workers never own these tasks, so every worker execution is a steal
  // from the external deque (caller help-runs are inline_tasks instead).
  EXPECT_EQ(s.steals + s.inline_tasks, s.tasks);
}

// Nested groups forked from worker threads while the caller floods the
// external deque: exercises help-join (workers waiting on inner groups
// must keep draining queues, not deadlock).
TEST(SchedStress, NestedGroupsUnderOversubscription) {
  const int lanes = static_cast<int>(std::thread::hardware_concurrency()) * 4 + 2;
  ThreadPool pool(lanes);
  std::atomic<long> total{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 32; ++i)
    outer.run([&pool, &total] {
      TaskGroup mid(pool);
      for (int j = 0; j < 8; ++j)
        mid.run([&pool, &total] {
          TaskGroup inner(pool);
          for (int k = 0; k < 4; ++k)
            inner.run([&total] { total.fetch_add(1); });
          inner.wait();
        });
      mid.wait();
    });
  outer.wait();
  EXPECT_EQ(total.load(), 32L * 8 * 4);
}

// Rapid construction/destruction while groups are in flight — the
// destructor's drain path and worker join under churn.
TEST(SchedStress, PoolChurn) {
  for (int round = 0; round < 40; ++round) {
    ThreadPool pool(5);
    std::atomic<int> count{0};
    TaskGroup group(pool);
    for (int i = 0; i < 50; ++i)
      group.run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
    EXPECT_EQ(count.load(), 50);
  }
}

}  // namespace
}  // namespace rsrpa::sched
