// Array-scale programming throughput: a full 1024x1024 bank through the
// SIMD batch kernel.
//
// The word-level benches (bench_word_parallel, bench_batch_throughput) stop
// at a few thousand cells; this harness programs a memory-bank-sized image —
// every cell SET then RESET-terminated to one of the 16 QLC references in a
// row-rotated pattern — one 1024-lane row word per CellBatch run. It is the
// end-to-end perf claim of the vector engine: sustained cells/s at a scale
// where scratch reuse, lane retirement and warm-start behaviour all matter,
// not just the inner-loop speedup.
//
// Writes array_scale.csv (+ telemetry sidecar) and BENCH_array_scale.json
// (with build provenance) for the compare_bench.py CI perf gate. The full
// bank takes ~a minute in a Release+OXMLC_NATIVE build; CI smoke passes
// --rows/--cols to shrink it.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mlc/levels.hpp"
#include "numeric/simd.hpp"
#include "obs/registry.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/fast_cell.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace oxmlc;

  const std::size_t rows = bench::size_flag(argc, argv, "--rows", 1024, 1);
  const std::size_t cols = bench::size_flag(argc, argv, "--cols", 1024, 1);
  const std::size_t threads = bench::size_flag(argc, argv, "--threads", 1);
  const std::size_t total = rows * cols;

  bench::print_header(
      "Array scale", "full-bank programming through the SIMD batch kernel",
      "(implementation claim: bank-scale MLC image writes at the word-level "
      "cells/s, sustained across " +
          std::to_string(rows) + "x" + std::to_string(cols) + " cells)");

  const auto allocation =
      mlc::LevelAllocation::iso_delta_i(4, mlc::kPaperIrefMin, mlc::kPaperIrefMax);
  const oxram::OxramParams nominal;
  const oxram::OxramVariability variability;
  const oxram::StackConfig stack;
  const oxram::SetOperation set_op;
  oxram::ResetOperation reset_template;
  reset_template.pulse.width = 12e-6;  // deepest reference must terminate

  const std::uint64_t retired_before =
      obs::registry().counter("batch.lanes_retired").value();

  std::uint64_t terminated = 0;
  double energy_source = 0.0;
  double latency_sum = 0.0;
  double latency_max = 0.0;

  // One row word per batch run: sample the row's devices, SET everything,
  // then RESET each bit line to its own reference (row-rotated so every
  // level appears in every column over the bank).
  const auto start = bench::now();
  Rng seeder(0xA11A5CA1Eull);
  oxram::BatchRunOptions options;
  options.threads = threads;
  oxram::CellBatch batch;
  for (std::size_t row = 0; row < rows; ++row) {
    std::vector<oxram::FastCell> cells;
    cells.reserve(cols);
    for (std::size_t col = 0; col < cols; ++col) {
      Rng rng = seeder.split();
      cells.push_back(
          oxram::FastCell::formed_lrs(sample_device(nominal, variability, rng), stack));
    }
    batch.clear();
    for (std::size_t col = 0; col < cols; ++col) batch.add_set(cells[col], set_op);
    batch.run(options);
    batch.clear();
    for (std::size_t col = 0; col < cols; ++col) {
      oxram::ResetOperation reset = reset_template;
      reset.iref = allocation.levels[(row + col) % allocation.count()].iref;
      batch.add_reset(cells[col], reset);
    }
    const std::vector<oxram::OperationResult> results = batch.run(options);
    for (const oxram::OperationResult& r : results) {
      terminated += r.terminated ? 1 : 0;
      energy_source += r.energy_source;
      latency_sum += r.t_terminate;
      latency_max = std::max(latency_max, r.t_terminate);
    }
  }
  const double elapsed = bench::seconds_since(start);
  const double cells_per_s = static_cast<double>(total) / elapsed;

  const std::uint64_t lanes_retired =
      obs::registry().counter("batch.lanes_retired").value() - retired_before;

  Table table({"rows", "cols", "cells", "wall (s)", "cells/s", "terminated",
               "mean RST latency", "mean RST energy"});
  table.add_row({std::to_string(rows), std::to_string(cols), std::to_string(total),
                 format_scaled(elapsed, 1.0, 2), format_scaled(cells_per_s, 1.0, 0),
                 std::to_string(terminated),
                 format_si(latency_sum / static_cast<double>(total), "s", 3),
                 format_si(energy_source / static_cast<double>(total), "J", 3)});
  table.print(std::cout);
  std::cout << "\n  engine: "
            << num::simd::backend_name(num::simd::active_backend())
            << ", threads: " << threads
            << ", worst RST latency: " << format_si(latency_max, "s", 3) << "\n";

  Table csv({"rows", "cols", "cells", "wall_s", "cells_per_s", "terminated",
             "mean_latency_s", "max_latency_s", "mean_energy_j"});
  csv.add_row({std::to_string(rows), std::to_string(cols), std::to_string(total),
               std::to_string(elapsed), std::to_string(cells_per_s),
               std::to_string(terminated),
               std::to_string(latency_sum / static_cast<double>(total)),
               std::to_string(latency_max),
               std::to_string(energy_source / static_cast<double>(total))});
  bench::save_csv(csv, "array_scale.csv");

  obs::Json json = bench::bench_json("array_scale");
  json.set("engine", num::simd::backend_name(num::simd::active_backend()));
  json.set("rows", static_cast<double>(rows));
  json.set("cols", static_cast<double>(cols));
  json.set("cells", static_cast<double>(total));
  json.set("threads", static_cast<double>(threads));
  json.set("wall_s", elapsed);
  json.set("cells_per_s", cells_per_s);
  json.set("terminated", static_cast<double>(terminated));
  json.set("lanes_retired", static_cast<double>(lanes_retired));
  json.set("mean_latency_s", latency_sum / static_cast<double>(total));
  json.set("max_latency_s", latency_max);
  json.set("mean_energy_j", energy_source / static_cast<double>(total));
  bench::save_json(json, "BENCH_array_scale.json");

  // Every lane must have reached its reference: a terminated count below the
  // cell count means some reference timed out and the bank image is invalid.
  if (terminated != total) {
    std::cerr << "ERROR: only " << terminated << "/" << total
              << " cells terminated\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}
