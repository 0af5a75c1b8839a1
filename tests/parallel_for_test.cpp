// Determinism and scheduling suite for the shared util::parallel_for pool.
//
// Two layers of pinning:
//   1. The pool itself: full index coverage for awkward (n, threads)
//      combinations, first-exception propagation, n = 0 as a no-op.
//   2. The bit-identity contract at every migrated call site: mc::run_trials,
//      run_retention_comparison, and CellBatch lane sharding must return
//      byte-for-byte identical results at 1, 2 and 8 threads — the property
//      every EXPERIMENTS.md number relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "mc/runner.hpp"
#include "mlc/levels.hpp"
#include "mlc/program.hpp"
#include "mlc/retention.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/fast_cell.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace oxmlc {
namespace {

TEST(ParallelFor, ResolveHelpers) {
  EXPECT_EQ(util::resolve_threads(4, 100), 4u);
  EXPECT_EQ(util::resolve_threads(8, 3), 3u);   // capped at the item count
  EXPECT_EQ(util::resolve_threads(0, 0), 1u);   // floor 1 even with no work
  EXPECT_GE(util::resolve_threads(0, 1000), 1u);

  EXPECT_EQ(util::resolve_chunk(64, 2), 4u);  // ~8 chunks/worker
  EXPECT_EQ(util::resolve_chunk(3, 8), 1u);   // floor 1
}

TEST(ParallelFor, ZeroItemsIsANoOpAndNeverRunsTheBody) {
  std::atomic<int> calls{0};
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::parallel_for(0, threads, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  }
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t n : {1u, 2u, 7u, 64u, 257u}) {
    for (std::size_t threads : {1u, 2u, 3u, 8u}) {
      std::vector<std::atomic<int>> visits(n);
      for (auto& v : visits) v.store(0);
      util::parallel_for(n, threads, [&](std::size_t begin, std::size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "n=" << n << " threads=" << threads << " index=" << i;
      }
    }
  }
}

TEST(ParallelFor, FirstExceptionPropagatesAndStopsClaiming) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> executed{0};
    EXPECT_THROW(util::parallel_for(1000, threads,
                                    [&](std::size_t begin, std::size_t) {
                                      executed.fetch_add(1);
                                      if (begin >= 3) throw std::runtime_error("boom");
                                    }),
                 std::runtime_error)
        << "threads=" << threads;
    // Only the chunk at 0 succeeds. After the first failure no new chunks are
    // claimed, so each worker runs at most one failing chunk.
    EXPECT_LE(executed.load(), static_cast<int>(1 + threads)) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Re-entrancy: a body that itself calls parallel_for. Production loops keep
// parallelism at one level (an inner call there runs on one thread), but the
// pool must stay correct when a caller nests anyway.
// ---------------------------------------------------------------------------

TEST(ParallelFor, ReentrantNestedLoopsCoverBothIndexSpaces) {
  // Outer "scheduler ticks" over 16 words; each tick fans a nested
  // parallel_for over the word's 8 "bit lines". Every (word, lane) pair must
  // execute exactly once regardless of either pool's thread count — the inner
  // pool spawns its own workers and must not interfere with the outer claims.
  constexpr std::size_t kWords = 16;
  constexpr std::size_t kLanes = 8;
  for (std::size_t outer_threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t inner_threads : {std::size_t{1}, std::size_t{3}}) {
      std::vector<std::atomic<int>> visits(kWords * kLanes);
      for (auto& v : visits) v.store(0);
      util::parallel_for(kWords, outer_threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t word = begin; word < end; ++word) {
          util::parallel_for(kLanes, inner_threads, [&](std::size_t lane_begin,
                                                        std::size_t lane_end) {
            for (std::size_t lane = lane_begin; lane < lane_end; ++lane) {
              visits[word * kLanes + lane].fetch_add(1);
            }
          });
        }
      });
      for (std::size_t i = 0; i < visits.size(); ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "outer=" << outer_threads << " inner=" << inner_threads << " cell=" << i;
      }
    }
  }
}

TEST(ParallelFor, ReentrantNestedResultsBitIdenticalAcrossThreadCounts) {
  // The determinism contract must survive nesting: a (seed, index)-keyed body
  // inside a nested pool yields the same bytes for any (outer, inner) thread
  // combination.
  const auto run = [](std::size_t outer_threads, std::size_t inner_threads) {
    constexpr std::size_t kWords = 12;
    constexpr std::size_t kLanes = 6;
    std::vector<std::uint64_t> out(kWords * kLanes, 0);
    util::parallel_for(kWords, outer_threads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t word = begin; word < end; ++word) {
        util::parallel_for(kLanes, inner_threads, [&](std::size_t lane_begin,
                                                      std::size_t lane_end) {
          for (std::size_t lane = lane_begin; lane < lane_end; ++lane) {
            Rng rng = mc::trial_rng(0xFEEDull, word * kLanes + lane);
            out[word * kLanes + lane] = rng.next_u64() ^ rng.next_u64();
          }
        });
      }
    });
    return out;
  };
  const std::vector<std::uint64_t> reference = run(1, 1);
  EXPECT_EQ(run(2, 1), reference);
  EXPECT_EQ(run(1, 4), reference);
  EXPECT_EQ(run(4, 2), reference);
  EXPECT_EQ(run(8, 8), reference);
}

TEST(ParallelFor, ExceptionInNestedInnerLoopPropagatesThroughOuterPool) {
  // A worker task that itself runs a parallel_for must surface the inner
  // loop's first exception through BOTH pools to the original caller, and the
  // outer pool must stop claiming new ticks afterwards.
  for (std::size_t outer_threads : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> outer_ticks{0};
    EXPECT_THROW(util::parallel_for(1000, outer_threads,
                                    [&](std::size_t begin, std::size_t) {
                                      outer_ticks.fetch_add(1);
                                      util::parallel_for(
                                          8, 2, [&](std::size_t lane, std::size_t) {
                                            if (begin >= 2 && lane >= 4) {
                                              throw std::runtime_error("lane fault");
                                            }
                                          });
                                    }),
                 std::runtime_error)
        << "outer=" << outer_threads;
    EXPECT_LE(outer_ticks.load(), static_cast<int>(1 + outer_threads))
        << "outer=" << outer_threads;
  }
}

// ---------------------------------------------------------------------------
// Call-site bit-identity at 1 / 2 / 8 threads
// ---------------------------------------------------------------------------

// mc::run_trials: an rng-heavy trial whose sample is the exact bit pattern of
// its draws. Any scheduling leak between trials changes the bytes.
TEST(ParallelForDeterminism, RunTrialsBitIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    const std::function<std::vector<double>(std::size_t)> trial = [](std::size_t index) {
      Rng rng = mc::trial_rng(0xD15EA5Eull, index);
      std::vector<double> draws(8);
      for (double& d : draws) d = rng.normal(static_cast<double>(index), 1.0);
      return draws;
    };
    return mc::run_trials<std::vector<double>>(64, threads, trial);
  };

  const auto reference = run(1);
  for (std::size_t threads : {2u, 8u}) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      for (std::size_t k = 0; k < reference[i].size(); ++k) {
        ASSERT_EQ(std::memcmp(&parallel[i][k], &reference[i][k], sizeof(double)), 0)
            << "threads=" << threads << " trial=" << i << " draw=" << k;
      }
    }
  }
}

// run_retention_comparison: one word of every level per MC trial, claimed off
// the pool by mc::run_trials, must give the same report byte-for-byte at any
// thread count (retention_test pins 1/2/5; this pins 2 and 8).
TEST(ParallelForDeterminism, RetentionStudyBitIdenticalAcrossThreadCounts) {
  mlc::RetentionConfig config = mlc::RetentionConfig::paper_default(2, 8);
  config.times = {1e-2, 1e2};

  config.study.mc.threads = 1;
  const std::string reference = to_json(run_retention_comparison(config)).dump(2);
  for (std::size_t threads : {2u, 8u}) {
    config.study.mc.threads = threads;
    EXPECT_EQ(to_json(run_retention_comparison(config)).dump(2), reference)
        << "threads=" << threads;
  }
}

// CellBatch lane sharding: a 16-level word programmed with sharded lanes must
// leave every cell and result bit-identical to the single-thread run.
TEST(ParallelForDeterminism, CellBatchShardingBitIdenticalAcrossThreadCounts) {
  const mlc::QlcConfig config = mlc::QlcConfig::paper_default();
  const std::size_t n_levels = config.allocation.count();

  struct Snapshot {
    std::vector<double> gaps;
    std::vector<oxram::OperationResult> results;
  };
  const auto run = [&](std::size_t threads) {
    Rng rng(0xC0FFEEull);
    std::vector<oxram::OxramParams> devices;
    for (std::size_t k = 0; k < n_levels; ++k) {
      Rng lane_rng = rng.split();
      devices.push_back(
          oxram::sample_device(oxram::OxramParams{}, oxram::OxramVariability{}, lane_rng));
    }
    std::vector<oxram::FastCell> cells;
    oxram::CellBatch batch;
    for (std::size_t k = 0; k < n_levels; ++k) {
      cells.push_back(oxram::FastCell::formed_lrs(devices[k], config.stack));
      cells[k].apply_set(config.set_op);
    }
    for (std::size_t k = 0; k < n_levels; ++k) {
      oxram::ResetOperation reset = config.reset_op;
      reset.iref = config.allocation.levels[k].iref;
      batch.add_reset(cells[k], reset);
    }
    oxram::BatchRunOptions options;
    options.threads = threads;
    Snapshot snap;
    snap.results = batch.run(options);
    for (const oxram::FastCell& cell : cells) snap.gaps.push_back(cell.gap());
    return snap;
  };

  const Snapshot reference = run(1);
  for (std::size_t threads : {2u, 8u}) {
    const Snapshot parallel = run(threads);
    ASSERT_EQ(parallel.gaps.size(), reference.gaps.size());
    for (std::size_t k = 0; k < n_levels; ++k) {
      ASSERT_EQ(std::memcmp(&parallel.gaps[k], &reference.gaps[k], sizeof(double)), 0)
          << "threads=" << threads << " lane=" << k;
      ASSERT_EQ(parallel.results[k].terminated, reference.results[k].terminated);
      ASSERT_EQ(std::memcmp(&parallel.results[k].final_gap,
                            &reference.results[k].final_gap, sizeof(double)),
                0)
          << "threads=" << threads << " lane=" << k;
      ASSERT_EQ(std::memcmp(&parallel.results[k].t_terminate,
                            &reference.results[k].t_terminate, sizeof(double)),
                0)
          << "threads=" << threads << " lane=" << k;
      ASSERT_EQ(std::memcmp(&parallel.results[k].energy_cell,
                            &reference.results[k].energy_cell, sizeof(double)),
                0)
          << "threads=" << threads << " lane=" << k;
    }
  }
}

}  // namespace
}  // namespace oxmlc
