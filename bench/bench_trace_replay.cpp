// Trace-replay throughput: the memsys tier end to end.
//
// Synthesizes the deterministic mixed read/write workload (memsys/trace.hpp),
// replays it through the 4-channel x 4-bank RRAM_ISSCC_2012 geometry —
// FR-FCFS scheduling, scrub injection, start-gap wear leveling, and the
// word/MNA/witness fidelity tiers sampling the stream — and reports sustained
// bandwidth, row-buffer locality and tail latency. This is the system-level
// perf claim of the PR: a million-request trace must replay in seconds, and
// its simulated figures of merit must not silently degrade.
//
// Writes trace_replay.csv (+ telemetry sidecar) and BENCH_trace.json for the
// compare_bench.py CI perf gate. The gated metrics (sustained_mb_s,
// row_hit_rate, retired_fraction) are SIMULATED quantities — pure functions
// of (trace, geometry) — so the gate is immune to runner speed; wall-clock
// replay rate is reported but not gated.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "memsys/replay.hpp"
#include "memsys/trace.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace oxmlc;

  const std::size_t requests = bench::size_flag(argc, argv, "--requests", 1'000'000, 1);
  const std::size_t threads = bench::size_flag(argc, argv, "--threads", 0);

  memsys::ReplayOptions options;
  options.threads = threads;
  options.fidelity.threads = threads;
  memsys::SyntheticTraceOptions workload;
  workload.requests = requests;

  bench::print_header(
      "Trace replay", "timed request stream through the memory-system tier",
      "(implementation claim: GB-class MLC arrays behind a real controller "
      "— " + std::to_string(requests) + " requests, 4ch x 4bk FR-FCFS, scrub "
      "+ wear leveling + tiered physics sampling)");

  const std::vector<memsys::TraceRequest> trace =
      memsys::synthesize_trace(options.geometry, workload);

  const auto start = bench::now();
  memsys::MemsysReport report = memsys::replay_trace(trace, options);
  const double elapsed = bench::seconds_since(start);
  const double replay_rate = static_cast<double>(requests) / elapsed;
  const double retired_fraction =
      static_cast<double>(report.requests_retired) / static_cast<double>(requests);

  Table table({"requests", "wall (s)", "req/s", "sim (s)", "MB/s", "hit rate",
               "p50 (ns)", "p99 (ns)", "p999 (ns)"});
  table.add_row({std::to_string(requests), format_scaled(elapsed, 1.0, 2),
                 format_scaled(replay_rate, 1.0, 0),
                 format_scaled(report.simulated_seconds, 1.0, 4),
                 format_scaled(report.sustained_mb_s, 1.0, 1),
                 format_scaled(report.row_hit_rate, 1.0, 3),
                 format_scaled(report.latency.p50_ns, 1.0, 0),
                 format_scaled(report.latency.p99_ns, 1.0, 0),
                 format_scaled(report.latency.p999_ns, 1.0, 0)});
  table.print(std::cout);
  std::cout << "\n  scrubs: " << report.scrub_commands
            << ", wear rotations: " << report.wear_rotations
            << ", word samples: " << report.word_tier.samples
            << " (decode errors: " << report.word_tier.decode_errors
            << "), MNA samples: " << report.mna_tier.samples
            << ", witness cells scrubbed: " << report.witness.cells_scrubbed
            << "\n";

  Table csv({"requests", "wall_s", "requests_per_s", "simulated_s",
             "sustained_mb_s", "row_hit_rate", "p50_ns", "p99_ns", "p999_ns",
             "scrub_commands", "wear_rotations", "word_decode_errors"});
  csv.add_row({std::to_string(requests), std::to_string(elapsed),
               std::to_string(replay_rate),
               std::to_string(report.simulated_seconds),
               std::to_string(report.sustained_mb_s),
               std::to_string(report.row_hit_rate),
               std::to_string(report.latency.p50_ns),
               std::to_string(report.latency.p99_ns),
               std::to_string(report.latency.p999_ns),
               std::to_string(report.scrub_commands),
               std::to_string(report.wear_rotations),
               std::to_string(report.word_tier.decode_errors)});
  bench::save_csv(csv, "trace_replay.csv");

  obs::Json json = bench::bench_json("trace_replay");
  json.set("requests", static_cast<double>(requests));
  json.set("threads", static_cast<double>(threads));
  json.set("wall_s", elapsed);
  json.set("requests_per_s", replay_rate);
  json.set("simulated_s", report.simulated_seconds);
  json.set("sustained_mb_s", report.sustained_mb_s);
  json.set("row_hit_rate", report.row_hit_rate);
  json.set("retired_fraction", retired_fraction);
  json.set("p50_ns", report.latency.p50_ns);
  json.set("p99_ns", report.latency.p99_ns);
  json.set("p999_ns", report.latency.p999_ns);
  json.set("scrub_commands", static_cast<double>(report.scrub_commands));
  json.set("wear_rotations", static_cast<double>(report.wear_rotations));
  json.set("word_samples", static_cast<double>(report.word_tier.samples));
  json.set("word_decode_errors", static_cast<double>(report.word_tier.decode_errors));
  json.set("mna_samples", static_cast<double>(report.mna_tier.samples));
  json.set("witness_cells_scrubbed", static_cast<double>(report.witness.cells_scrubbed));
  bench::save_json(json, "BENCH_trace.json");

  // Invariants: every request must retire, the word tier must not time out,
  // and every MNA sample must terminate — a shortfall means the scheduler
  // lost requests or a physics tier regressed (or lost a sample), not that
  // the machine was slow.
  if (report.requests_retired != requests) {
    std::cerr << "ERROR: only " << report.requests_retired << "/" << requests
              << " requests retired\n";
    return 1;
  }
  if (report.word_tier.unterminated != 0) {
    std::cerr << "ERROR: " << report.word_tier.unterminated
              << " word-tier RESET pulses timed out\n";
    return 1;
  }
  if (report.mna_tier.terminated != report.mna_tier.samples) {
    std::cerr << "ERROR: only " << report.mna_tier.terminated << "/"
              << report.mna_tier.samples << " MNA-tier words terminated\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}
