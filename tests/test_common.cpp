// Unit tests for the common utilities: config parsing, timers, RNG.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace rsrpa {
namespace {

TEST(Config, ParsesArtifactStyleInput) {
  const std::string text =
      "N_NUCHI_EIGS: 768\n"
      "N_OMEGA: 8\n"
      "TOL_EIG: 4e-3 2e-3 5e-4 5e-4 5e-4 5e-4 5e-4 5e-4\n"
      "TOL_STERN_RES: 1e-2\n"
      "MAXIT_FILTERING: 10\n"
      "CHEB_DEGREE_RPA: 2\n"
      "FLAG_PQ_OPERATOR: 0\n"
      "FLAG_COCGINITIAL: 1\n";
  Config cfg = Config::parse(text);
  EXPECT_EQ(cfg.get_int("N_NUCHI_EIGS"), 768);
  EXPECT_EQ(cfg.get_int("N_OMEGA"), 8);
  EXPECT_DOUBLE_EQ(cfg.get_double("TOL_STERN_RES"), 1e-2);
  const auto tols = cfg.get_doubles("TOL_EIG");
  ASSERT_EQ(tols.size(), 8u);
  EXPECT_DOUBLE_EQ(tols[0], 4e-3);
  EXPECT_DOUBLE_EQ(tols[7], 5e-4);
  EXPECT_EQ(cfg.get_int("FLAG_COCGINITIAL"), 1);
}

TEST(Config, IgnoresCommentsAndBlankLines) {
  Config cfg = Config::parse("# header comment\n\nA: 1  # trailing\n   \nB: 2\n");
  EXPECT_EQ(cfg.get_int("A"), 1);
  EXPECT_EQ(cfg.get_int("B"), 2);
  EXPECT_EQ(cfg.keys().size(), 2u);
}

TEST(Config, MissingKeyThrows) {
  Config cfg = Config::parse("A: 1\n");
  EXPECT_THROW((void)cfg.get_int("B"), Error);
  EXPECT_EQ(cfg.get_int_or("B", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double_or("B", 2.5), 2.5);
}

TEST(Config, MalformedValueThrows) {
  Config cfg = Config::parse("A: xyz\n");
  EXPECT_THROW((void)cfg.get_int("A"), Error);
  EXPECT_THROW((void)cfg.get_double("A"), Error);
}

TEST(Config, RejectsTrailingGarbage) {
  // std::stoi("8 atoms") silently returns 8; the strict parser must not.
  Config cfg = Config::parse(
      "N_ATOMS: 8 atoms\n"
      "VERSION: 1.5.3\n"
      "TOL: 1e-3x\n"
      "COUNT: 12,\n"
      "HEX: 0x10\n"
      "FRACTION: 2.5\n");
  EXPECT_THROW((void)cfg.get_int("N_ATOMS"), Error);
  EXPECT_THROW((void)cfg.get_double("N_ATOMS"), Error);
  EXPECT_THROW((void)cfg.get_double("VERSION"), Error);
  EXPECT_THROW((void)cfg.get_double("TOL"), Error);
  EXPECT_THROW((void)cfg.get_int("COUNT"), Error);
  EXPECT_THROW((void)cfg.get_int("HEX"), Error);
  // An integer getter must not truncate a fractional value either.
  EXPECT_THROW((void)cfg.get_int("FRACTION"), Error);
}

TEST(Config, RejectsGarbageInNumberLists) {
  Config cfg = Config::parse("TOLS: 1e-3 2e-3x 5e-4\n");
  EXPECT_THROW((void)cfg.get_doubles("TOLS"), Error);
}

TEST(Config, AcceptsFullTokenNumbers) {
  Config cfg = Config::parse(
      "A: -42\n"
      "B: +17\n"
      "C: 2.5e-3\n"
      "D: +0.5\n"
      "E: -1e4\n");
  EXPECT_EQ(cfg.get_int("A"), -42);
  EXPECT_EQ(cfg.get_int("B"), 17);
  EXPECT_DOUBLE_EQ(cfg.get_double("C"), 2.5e-3);
  EXPECT_DOUBLE_EQ(cfg.get_double("D"), 0.5);
  EXPECT_DOUBLE_EQ(cfg.get_double("E"), -1e4);
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::parse("no colon here\n"), Error);
}

TEST(Config, SetOverridesValue) {
  Config cfg = Config::parse("A: 1\n");
  cfg.set("A", "5");
  EXPECT_EQ(cfg.get_int("A"), 5);
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
}

TEST(KernelTimers, AccumulatesAndMerges) {
  KernelTimers a;
  a.add("matmult", 1.0);
  a.add("matmult", 0.5);
  a.add("eigensolve", 2.0);
  EXPECT_DOUBLE_EQ(a.get("matmult"), 1.5);
  EXPECT_DOUBLE_EQ(a.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(a.total(), 3.5);

  KernelTimers b;
  b.add("matmult", 2.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.get("matmult"), 3.5);
  EXPECT_DOUBLE_EQ(a.get("eigensolve"), 2.0);
}

TEST(KernelTimers, ScopedTimerAddsToBucket) {
  KernelTimers t;
  {
    ScopedKernelTimer scoped(t, "work");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(t.get("work"), 0.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, RademacherIsPlusMinusOne) {
  Rng rng(7);
  int plus = 0;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.rademacher();
    EXPECT_TRUE(v == 1.0 || v == -1.0);
    if (v == 1.0) ++plus;
  }
  // Both signs occur with roughly equal frequency.
  EXPECT_GT(plus, 350);
  EXPECT_LT(plus, 650);
}

TEST(Rng, NormalHasApproximatelyUnitVariance) {
  Rng rng(3);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sumsq += v * v;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Error, RequireMacroThrowsWithLocation) {
  try {
    RSRPA_REQUIRE_MSG(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
  }
}

TEST(Rng, DeriveIsDeterministicAndIndependentOfDrawHistory) {
  Rng a(42), b(42);
  // Perturb one parent's draw position: derivation must depend only on
  // (seed, stream), never on how many values the parent produced.
  for (int i = 0; i < 17; ++i) (void)b.uniform();
  Rng da = a.derive(3), db = b.derive(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(da.engine()(), db.engine()());
}

TEST(Rng, DerivedStreamsAreDecorrelated) {
  Rng parent(0x5eed);
  // Consecutive stream ids give unrelated sequences (splitmix64-mixed
  // seeds), and none collides with the parent's own stream.
  Rng s0 = parent.derive(0), s1 = parent.derive(1);
  int equal_01 = 0, equal_0p = 0;
  Rng fresh(0x5eed);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v0 = s0.engine()(), v1 = s1.engine()();
    if (v0 == v1) ++equal_01;
    if (v0 == fresh.engine()()) ++equal_0p;
  }
  EXPECT_EQ(equal_01, 0);
  EXPECT_EQ(equal_0p, 0);
}

TEST(Rng, DeriveByWorkItemIsScheduleIndependent) {
  // The threading contract: one derived stream per WORK ITEM fills the
  // same values regardless of the order the items are processed in.
  const Rng parent(99);
  std::vector<double> forward(8), backward(8);
  for (std::size_t j = 0; j < 8; ++j)
    forward[j] = parent.derive(j).uniform();
  for (std::size_t j = 8; j-- > 0;)
    backward[j] = parent.derive(j).uniform();
  EXPECT_EQ(forward, backward);
}

TEST(Timer, AtomicAddSecondsAccumulatesConcurrently) {
  std::atomic<double> bucket{0.0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&bucket] {
      for (int i = 0; i < 1000; ++i) atomic_add_seconds(bucket, 0.001);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_NEAR(bucket.load(), 4.0, 1e-9);
}

TEST(Rng, SaveLoadStateResumesTheExactSequence) {
  Rng a(123);
  for (int i = 0; i < 37; ++i) a.uniform();  // advance mid-stream
  const std::string state = a.save_state();
  Rng b = Rng::load_state(state);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SaveLoadStatePreservesTheDerivationSeed) {
  Rng a(99);
  for (int i = 0; i < 5; ++i) a.normal();
  Rng b = Rng::load_state(a.save_state());
  EXPECT_EQ(b.seed(), a.seed());
  // derive() keys on the constructor seed only, so derived streams agree
  // regardless of how far the engines have advanced.
  EXPECT_EQ(a.derive(7).uniform(), b.derive(7).uniform());
}

TEST(Rng, LoadStateRejectsMalformedInput) {
  EXPECT_THROW(Rng::load_state(""), Error);
  EXPECT_THROW(Rng::load_state("not a state"), Error);
}

TEST(Timer, WallClockChargesElapsedTimeToBucket) {
  std::atomic<double> bucket{0.0};
  {
    WallClock clock(bucket);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(bucket.load(), 0.005);
  {
    WallClock clock(bucket);  // scopes accumulate, not overwrite
  }
  EXPECT_GE(bucket.load(), 0.005);
}

}  // namespace
}  // namespace rsrpa
