// Deterministic Monte-Carlo runner.
//
// Each trial receives its own Rng derived from (seed, trial index) alone, so
// results are bit-identical regardless of thread count or scheduling — the
// property that makes the EXPERIMENTS.md numbers reproducible.
//
// Scheduling is delegated to util::parallel_for (the repo's one shared
// chunk-claiming pool); this layer adds the trial-Rng derivation and the mc.*
// telemetry on top of it.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <vector>

#include "obs/registry.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace oxmlc::mc {

namespace detail {

// Telemetry shared by every run_trials instantiation. Recording is wait-free
// and touches no trial state, so the determinism contract (results depend on
// (seed, index) only) is unaffected.
struct RunnerMetrics {
  obs::Counter& runs = obs::registry().counter("mc.runs");
  obs::Counter& trials = obs::registry().counter("mc.trials");
  obs::Counter& chunks_claimed = obs::registry().counter("mc.chunks_claimed");
  obs::Counter& trial_failures = obs::registry().counter("mc.trial_failures");
  obs::Gauge& threads = obs::registry().gauge("mc.threads");
  obs::Gauge& throughput = obs::registry().gauge("mc.trials_per_second");
  obs::Timer& trial_time = obs::registry().timer("mc.trial_time");
  obs::Timer& run_time = obs::registry().timer("mc.run_time");

  static RunnerMetrics& get() {
    static RunnerMetrics metrics;
    return metrics;
  }
};

}  // namespace detail

struct McOptions {
  std::size_t trials = 500;  // the paper's MC depth (500 runs per level)
  std::uint64_t seed = 0xA21Cull;
  std::size_t threads = 0;  // 0 = hardware_concurrency
};

// Derives the deterministic Rng of one trial.
Rng trial_rng(std::uint64_t seed, std::size_t trial);

// Runs `trial(index, rng)` for every trial and collects the returned samples
// in trial order. Scheduling is dynamic (workers claim contiguous chunks off
// an atomic cursor) but samples stay bit-identical for any thread count
// because each trial's Rng depends on (seed, index) alone.
//
// A throwing trial aborts the run: in-flight trials finish, no new chunks are
// claimed, the first exception is rethrown on the caller after the pool
// joins, and every failure increments `mc.trial_failures`.
template <typename Sample>
std::vector<Sample> run_trials(const McOptions& options,
                               const std::function<Sample(std::size_t, Rng&)>& trial) {
  std::vector<Sample> samples(options.trials);
  const std::size_t threads = util::resolve_threads(options.threads, options.trials);

  detail::RunnerMetrics& metrics = detail::RunnerMetrics::get();
  metrics.runs.add();
  metrics.trials.add(options.trials);
  metrics.threads.set(static_cast<double>(threads));
  const auto run_start = std::chrono::steady_clock::now();
  obs::ScopedTimer run_timer(metrics.run_time);

  util::parallel_for(options.trials, threads, [&](std::size_t begin, std::size_t end) {
    metrics.chunks_claimed.add();
    for (std::size_t i = begin; i < end; ++i) {
      Rng rng = trial_rng(options.seed, i);
      obs::ScopedTimer trial_timer(metrics.trial_time);
      try {
        samples[i] = trial(i, rng);
      } catch (...) {
        metrics.trial_failures.add();
        throw;
      }
    }
  });

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
          .count();
  if (elapsed > 0.0 && options.trials > 0) {
    metrics.throughput.set(static_cast<double>(options.trials) / elapsed);
  }
  return samples;
}

}  // namespace oxmlc::mc
