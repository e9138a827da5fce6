// Wall-clock timing utilities.
//
// WallTimer is a trivial stopwatch. KernelTimers is a named accumulator
// used to produce the per-kernel timing breakdown of the paper's Fig. 5
// (nu^{1/2} chi0 nu^{1/2} apply, matmult, eigensolve, eval error). Scoped
// accumulation via ScopedKernelTimer keeps call sites one line.
//
// Threading contract: WallTimer, KernelTimers and ScopedKernelTimer are
// SINGLE-OWNER — one thread constructs, accumulates and reads; sharing an
// instance across concurrent sched tasks is a data race. Concurrent code
// either gives each task its own instance and merges afterwards (the
// per-rank pattern in rpa/erpa.cpp) or accumulates through WallClock,
// whose atomic bucket many tasks may share.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace rsrpa {

/// Simple monotonic stopwatch measuring seconds.
class WallTimer {
 public:
  WallTimer() { reset(); }
  void reset() { start_ = Clock::now(); }
  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Add `seconds` to an atomic double bucket (CAS loop; C++20's
/// fetch_add(double) is not yet universal across standard libraries).
inline void atomic_add_seconds(std::atomic<double>& bucket, double seconds) {
  double cur = bucket.load(std::memory_order_relaxed);
  while (!bucket.compare_exchange_weak(cur, cur + seconds,
                                       std::memory_order_relaxed)) {
  }
}

/// RAII stopwatch that adds the lifetime of the scope into an atomic
/// bucket on destruction. Unlike WallTimer + manual accumulation, a
/// single bucket may be shared by many concurrent sched tasks — this is
/// the form the pool's per-worker busy counters use inside tasks.
class WallClock {
 public:
  explicit WallClock(std::atomic<double>& bucket) : bucket_(bucket) {}
  ~WallClock() { atomic_add_seconds(bucket_, timer_.seconds()); }
  WallClock(const WallClock&) = delete;
  WallClock& operator=(const WallClock&) = delete;

 private:
  std::atomic<double>& bucket_;
  WallTimer timer_;
};

/// Named accumulator of kernel times. Not thread-safe by design: each
/// simulated rank owns its own instance and results are merged afterwards.
class KernelTimers {
 public:
  /// Add `seconds` to the bucket `name`, creating it if needed.
  void add(const std::string& name, double seconds);
  /// Accumulated seconds in bucket `name` (0 if absent).
  [[nodiscard]] double get(const std::string& name) const;
  /// True when bucket `name` exists.
  [[nodiscard]] bool contains(const std::string& name) const {
    return buckets_.count(name) > 0;
  }
  /// Sum of all buckets.
  [[nodiscard]] double total() const;
  /// All buckets in insertion-independent (sorted) order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> entries() const;
  /// Merge another set of timers into this one (bucket-wise sum).
  void merge(const KernelTimers& other);
  void clear() { buckets_.clear(); }

 private:
  std::map<std::string, double> buckets_;
};

/// RAII helper: accumulates the lifetime of the scope into a bucket.
class ScopedKernelTimer {
 public:
  ScopedKernelTimer(KernelTimers& timers, std::string name)
      : timers_(timers), name_(std::move(name)) {}
  ~ScopedKernelTimer() { timers_.add(name_, timer_.seconds()); }
  ScopedKernelTimer(const ScopedKernelTimer&) = delete;
  ScopedKernelTimer& operator=(const ScopedKernelTimer&) = delete;

 private:
  KernelTimers& timers_;
  std::string name_;
  WallTimer timer_;
};

}  // namespace rsrpa
