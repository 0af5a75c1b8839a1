// One shared chunk-claiming task pool for every data-parallel loop in the
// repo. Parallelism lives at one level: it has two production callers, each
// one coarse loop over independent items — mc::run_trials, the one loop of
// independent trials (the level study, the retention sweep, the ECC
// explorer's words and the memsys word and MNA tiers' samples), and
// CellBatch::run's lane shards. Nothing below those loops (the Schur solver,
// Newton, the device models) starts a pool of its own.
//
// Scheduling model. The index space [0, n) is split into fixed-size chunks;
// workers claim contiguous chunks off an atomic cursor until the space is
// exhausted. Which worker executes which chunk is nondeterministic — so the
// DETERMINISM CONTRACT is on the body, not the pool:
//
//   The result of processing index i must depend on i (and captured
//   read-only state) alone — never on the executing thread, the chunk
//   boundaries, or what other indices ran before it. Randomized bodies
//   derive their stream from a (seed, index) function (mc::trial_rng is the
//   canonical one).
//
// Under that contract results are bit-identical for any thread count, which
// the parallel_for determinism suite pins for the call sites at 1, 2 and 8
// threads.
//
// Error handling: a throwing body aborts the run — in-flight chunks finish,
// no new chunks are claimed, and the first exception is rethrown on the
// caller after the pool joins. The pool itself records no telemetry (util
// sits below obs in the layering); mc::run_trials records the mc.* metrics
// of every trial loop.
#pragma once

#include <cstddef>
#include <functional>

namespace oxmlc::util {

// Worker count actually used for `items` work items: `requested` (or
// hardware_concurrency when 0), capped at the item count, floor 1.
std::size_t resolve_threads(std::size_t requested, std::size_t items);

// Indices per claim: ~8 chunks per worker — small enough that one straggler
// chunk cannot idle the rest of the pool, large enough that the claim
// counter stays cold.
std::size_t resolve_chunk(std::size_t items, std::size_t threads);

// Runs body(begin, end) over [0, n) in claimed chunks on `threads` workers
// (0 = hardware_concurrency; capped at n). One worker runs the same chunk
// boundaries in order on the calling thread.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace oxmlc::util
