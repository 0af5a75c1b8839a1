// Trace replay: the memsys tier's top-level entry point.
//
// replay_trace() runs a timed request stream through the CommandScheduler
// (behavioral tier), harvests the deterministic fidelity samples it marked
// along the way, evaluates them through the FidelityEngine (word / MNA /
// reliability-witness tiers), and folds everything into one MemsysReport:
// sustained bandwidth, per-bank occupancy, p50/p99/p999 request latency, and
// the physics-tier summaries.
//
// to_json() emits the `oxmlc.memsys.v1` schema consumed by the CI trace smoke
// step and bench_trace_replay. The JSON is a pure function of (trace,
// options) — the wall-clock time lives only in the MemsysReport struct
// (wall_seconds) and is deliberately excluded from the schema so reports are
// byte-identical across machines and thread counts (the acceptance test diffs
// 1/2/8-thread dumps).
//
// Telemetry: memsys.* counters in the oxmlc.metrics.v1 registry
// (requests_retired, reads, writes, row_hits/row_misses/row_conflicts,
// scrub_commands, wear_rotations, word_samples, mna_samples,
// witness_cells_scrubbed, replay_time).
#pragma once

#include <span>

#include "memsys/fidelity.hpp"
#include "memsys/geometry.hpp"
#include "memsys/scheduler.hpp"
#include "memsys/trace.hpp"
#include "obs/json.hpp"

namespace oxmlc::memsys {

struct LatencySummary {
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;
};

struct ReplayOptions {
  GeometryConfig geometry = GeometryConfig::rram_isscc_2012();
  FidelityConfig fidelity;
  std::size_t threads = 0;  // fidelity-tier parallel_for workers (0 = auto)
};

struct MemsysReport {
  GeometryConfig geometry;
  // Behavioral tier.
  std::uint64_t requests = 0;
  std::uint64_t requests_retired = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t row_conflicts = 0;
  std::uint64_t scrub_commands = 0;
  std::uint64_t wear_rotations = 0;
  std::uint64_t queue_stall_cycles = 0;
  std::uint64_t total_cycles = 0;
  double simulated_seconds = 0.0;   // total_cycles at the configured clock
  double sustained_mb_s = 0.0;      // retired payload bytes / simulated time
  double row_hit_rate = 0.0;        // hits / (hits + misses + conflicts)
  LatencySummary read_latency;
  LatencySummary write_latency;
  LatencySummary latency;           // all requests
  std::vector<BankStats> banks;
  double mean_bank_occupancy = 0.0;  // mean busy_cycles / total_cycles
  // Fidelity tiers.
  WordTierReport word_tier;
  MnaTierReport mna_tier;
  WitnessReport witness;
  // Wall-clock (NOT part of to_json; machine-dependent).
  double wall_seconds = 0.0;
};

MemsysReport replay_trace(std::span<const TraceRequest> trace, const ReplayOptions& options);

// The `oxmlc.memsys.v1` document: deterministic for fixed (trace, options).
obs::Json to_json(const MemsysReport& report);

}  // namespace oxmlc::memsys
