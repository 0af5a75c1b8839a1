// Deterministic Monte-Carlo runner: the one loop of independent trials.
//
// run_trials calls trial(i) for every index and collects the samples in
// index order. A trial that draws random numbers derives its own stream from
// (seed, index) alone, trial_rng being the canonical derivation, so results
// are bit-identical regardless of thread count or scheduling: the property
// that makes the EXPERIMENTS.md numbers reproducible.
//
// Scheduling is delegated to util::parallel_for (the repo's one shared
// chunk-claiming pool); this layer adds the mc.* telemetry on top of it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/registry.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace oxmlc::mc {

namespace detail {

// Telemetry shared by every run_trials instantiation. Recording is wait-free
// and touches no trial state, so the determinism contract (results depend on
// the index only) is unaffected.
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

// Derives the deterministic Rng of one trial.
Rng trial_rng(std::uint64_t seed, std::size_t trial);

// Runs `trial(index)` for every index in [0, trials) on `threads` workers
// (0 = hardware_concurrency) and collects the returned samples in index
// order. Scheduling is dynamic (workers claim contiguous chunks off an atomic
// cursor), so a sample must depend on its index (and read-only captured
// state) alone.
//
// A throwing trial aborts the run: in-flight trials finish, no new chunks are
// claimed, the first exception is rethrown on the caller after the pool
// joins, and every failure increments `mc.trial_failures`.
template <typename Sample>
std::vector<Sample> run_trials(std::size_t trials, std::size_t threads,
                               const std::function<Sample(std::size_t)>& trial) {
  std::vector<Sample> samples(trials);
  const std::size_t workers = util::resolve_threads(threads, trials);

  detail::RunnerMetrics& metrics = detail::RunnerMetrics::get();
  metrics.runs.add();
  metrics.trials.add(trials);
  metrics.threads.set(static_cast<double>(workers));
  const auto run_start = std::chrono::steady_clock::now();
  obs::ScopedTimer run_timer(metrics.run_time);

  util::parallel_for(trials, workers, [&](std::size_t begin, std::size_t end) {
    metrics.chunks_claimed.add();
    for (std::size_t i = begin; i < end; ++i) {
      obs::ScopedTimer trial_timer(metrics.trial_time);
      try {
        samples[i] = trial(i);
      } catch (...) {
        metrics.trial_failures.add();
        throw;
      }
    }
  });

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
          .count();
  if (elapsed > 0.0 && trials > 0) {
    metrics.throughput.set(static_cast<double>(trials) / elapsed);
  }
  return samples;
}

}  // namespace oxmlc::mc
