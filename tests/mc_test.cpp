#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "mc/runner.hpp"
#include "util/stats.hpp"

namespace oxmlc::mc {
namespace {

TEST(McRunner, TrialRngIsDeterministicPerIndex) {
  Rng a = trial_rng(42, 7);
  Rng b = trial_rng(42, 7);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(McRunner, TrialsAreIndependentStreams) {
  Rng a = trial_rng(42, 0);
  Rng b = trial_rng(42, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

// Every trial below draws from its own (seed, index) stream, as the
// production trials do.
constexpr std::uint64_t kSeed = 0xA21Cull;

TEST(McRunner, ResultsIndependentOfThreadCount) {
  const std::function<double(std::size_t)> trial = [](std::size_t index) {
    Rng rng = trial_rng(kSeed, index);
    double sum = 0.0;
    for (int i = 0; i < 10; ++i) sum += rng.normal(0, 1);
    return sum;
  };
  const auto a = run_trials<double>(64, 1, trial);
  const auto b = run_trials<double>(64, 4, trial);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

// The determinism contract stated in src/mc/runner.hpp: results are
// bit-identical regardless of thread count. Exercised at the 1-vs-8 extreme
// with a trial that consumes a data-dependent number of RNG draws, so any
// cross-trial stream sharing or scheduling dependence would shift bits.
TEST(McRunner, ResultsBitIdenticalOneVsEightThreads) {
  const std::function<double(std::size_t)> trial = [](std::size_t index) {
    Rng rng = trial_rng(kSeed, index);
    double acc = static_cast<double>(index);
    const int draws = 1 + static_cast<int>(rng.next_u64() % 17);
    for (int i = 0; i < draws; ++i) acc += rng.normal(0.0, 1.0) * rng.uniform();
    return acc;
  };
  // 257 trials, not a multiple of 8: uneven per-thread strides.
  const auto a = run_trials<double>(257, 1, trial);
  const auto b = run_trials<double>(257, 8, trial);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit identity, not tolerance: memcmp-equivalent via ==.
    EXPECT_EQ(a[i], b[i]) << "trial " << i;
  }
}

TEST(McRunner, SeedChangesSamples) {
  const auto uniform = [](std::uint64_t seed) {
    return std::function<double(std::size_t)>(
        [seed](std::size_t index) { return trial_rng(seed, index).uniform(); });
  };
  const auto a = run_trials<double>(16, 0, uniform(1));
  const auto b = run_trials<double>(16, 0, uniform(2));
  int equal = 0;
  for (std::size_t i = 0; i < a.size(); ++i) equal += a[i] == b[i];
  EXPECT_EQ(equal, 0);
}

TEST(McRunner, TrialIndexIsPassedThrough) {
  const std::function<std::size_t(std::size_t)> trial = [](std::size_t index) {
    return index;
  };
  const auto samples = run_trials<std::size_t>(20, 0, trial);
  ASSERT_EQ(samples.size(), 20u);
  for (std::size_t i = 0; i < samples.size(); ++i) EXPECT_EQ(samples[i], i);
}

// Golden vectors for the trial_rng mixing function. These pin the exact
// stream derivation: any change to the mixer (or to Rng seeding) silently
// invalidates every recorded EXPERIMENTS.md distribution, so it must fail
// loudly here instead.
TEST(McRunner, TrialRngGoldenVectors) {
  struct Golden {
    std::uint64_t seed;
    std::size_t trial;
    std::uint64_t expected[4];
  };
  const Golden goldens[] = {
      {0xA21Cull, 0, {0xd4a0074683bbdf87ull, 0x49021f7db65b3ca8ull,
                      0xb317ed786f4aa813ull, 0xca21b3f32706dc8dull}},
      {0xA21Cull, 1, {0x41d19dfb6841b278ull, 0x2bf3670cfc1ea430ull,
                      0x9c7d9b49ffe66a0cull, 0xd655fe6232792f84ull}},
      {0xA21Cull, 7, {0x6ad1389547761d7aull, 0xd25799dc75e7d32eull,
                      0x758e0716fd2c81faull, 0x88df297a87c9173cull}},
      {42ull, 0, {0x1161f6b1991a31e4ull, 0x34f28b9e864ca0f0ull,
                  0xcede81ef046f9ddaull, 0x652111b2704dd461ull}},
      {42ull, 1, {0x2833430d60dc5f24ull, 0x9541aa86c3da7311ull,
                  0x59971219efeb81a0ull, 0xcf252bb3e181d338ull}},
      {42ull, 7, {0xe6a2ba90c145c693ull, 0x091bd2f1b8ece0c3ull,
                  0xc0d6f1530f308eb5ull, 0x9b4295baa558ecc7ull}},
  };
  for (const Golden& g : goldens) {
    Rng rng = trial_rng(g.seed, g.trial);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(rng.next_u64(), g.expected[i])
          << "seed=" << g.seed << " trial=" << g.trial << " draw=" << i;
    }
  }
}

// Chunked claiming must not change results for ANY thread count, including
// counts that do not divide the trial total and counts above it.
TEST(McRunner, ChunkedSchedulingBitIdenticalAcrossThreadCounts) {
  const std::function<double(std::size_t)> trial = [](std::size_t index) {
    Rng rng = trial_rng(kSeed, index);
    double acc = static_cast<double>(index);
    const int draws = 1 + static_cast<int>(rng.next_u64() % 13);
    for (int i = 0; i < draws; ++i) acc += rng.normal(0.0, 1.0) * rng.uniform();
    return acc;
  };
  // 101 trials, a prime: never divides evenly into chunks.
  const auto reference = run_trials<double>(101, 1, trial);
  for (std::size_t threads : {2, 3, 5, 16, 33}) {
    const auto samples = run_trials<double>(101, threads, trial);
    ASSERT_EQ(samples.size(), reference.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(samples[i], reference[i]) << "threads=" << threads << " trial=" << i;
    }
  }
}

// The chunk policy lives in the shared pool (util::resolve_chunk); the
// runner inherits it through parallel_for.
TEST(McRunner, ClaimChunkTargetsEightChunksPerWorker) {
  EXPECT_EQ(util::resolve_chunk(500, 8), 7u);
  EXPECT_EQ(util::resolve_chunk(16, 4), 1u);
  // Never zero, even when trials < threads * 8.
  EXPECT_EQ(util::resolve_chunk(3, 16), 1u);
}

// A throwing trial must reach the caller as an exception (the old pool let it
// escape a worker thread straight into std::terminate) and be counted.
TEST(McRunner, WorkerExceptionPropagatesToCaller) {
  const std::function<double(std::size_t)> trial = [](std::size_t index) {
    if (index == 13) throw std::runtime_error("trial 13 diverged");
    return 0.0;
  };
  const std::uint64_t failures_before =
      obs::registry().counter("mc.trial_failures").value();
  EXPECT_THROW(run_trials<double>(64, 4, trial), std::runtime_error);
  EXPECT_GE(obs::registry().counter("mc.trial_failures").value(), failures_before + 1);
}

TEST(McRunner, SerialExceptionPropagatesAndCounts) {
  const std::function<double(std::size_t)> trial = [](std::size_t index) {
    if (index == 5) throw std::runtime_error("trial 5 diverged");
    return 0.0;
  };
  const std::uint64_t failures_before =
      obs::registry().counter("mc.trial_failures").value();
  EXPECT_THROW(run_trials<double>(8, 1, trial), std::runtime_error);
  EXPECT_EQ(obs::registry().counter("mc.trial_failures").value(), failures_before + 1);
}

TEST(McRunner, SampledMeanConvergesToTruth) {
  const std::function<double(std::size_t)> trial = [](std::size_t index) {
    return trial_rng(kSeed, index).normal(3.0, 1.0);
  };
  const auto samples = run_trials<double>(20000, 0, trial);
  RunningStats stats;
  for (double s : samples) stats.add(s);
  EXPECT_NEAR(stats.mean(), 3.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

}  // namespace
}  // namespace oxmlc::mc
