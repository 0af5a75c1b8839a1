// Batch-vs-scalar programming throughput (perf claim of the SoA kernel).
//
// Programs N cells — SET then terminated RESET across the 16-level IrefR bank
// — twice: once as a serial loop of the reference stepper
// (oxram/reference_pulse.hpp: 52-halving bisection per time step), once
// through oxram::CellBatch (the production engine: warm-started pack Newton,
// lockstep lanes, termination masking + retirement). Reports cells/s for
// N in {16, 256, 4096} and the speedup; the acceptance bar is >= 5x on the
// 4096-cell sweep in a single-threaded Release build.
//
// Writes batch_throughput.csv (+ the standard telemetry sidecar) and a
// BENCH_batch.json summary consumed by the bench-smoke CI assertions.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mlc/levels.hpp"
#include "numeric/simd.hpp"
#include "obs/registry.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/fast_cell.hpp"
#include "oxram/reference_pulse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct Sweep {
  std::size_t lanes = 0;
  double scalar_cps = 0.0;  // serial loop of the reference stepper
  double batch_cps = 0.0;   // CellBatch on the dispatched pack backend
  double speedup = 0.0;     // batch vs the serial loop
};

int run(int argc, char** argv) {
  using namespace oxmlc;

  // The smallest sweep is 16 lanes; a lower cap would sweep nothing.
  const std::size_t max_lanes = bench::size_flag(argc, argv, "--max-lanes", 4096, 16);

  bench::print_header(
      "Batch throughput", "SoA batch kernel vs serial reference stepper",
      "(implementation claim: whole-word/array programming through the "
      "warm-started lockstep kernel, >= 5x at 4096 cells, identical physics)");

  const auto allocation =
      mlc::LevelAllocation::iso_delta_i(4, mlc::kPaperIrefMin, mlc::kPaperIrefMax);
  const oxram::OxramParams nominal;
  const oxram::OxramVariability variability;
  const oxram::StackConfig stack;
  const oxram::SetOperation set_op;
  oxram::ResetOperation reset_template;
  // Plateau sized like the QLC flow so the deepest reference always
  // terminates instead of timing out.
  reset_template.pulse.width = 12e-6;

  const auto make_cells = [&](std::size_t n) {
    Rng seeder(0xBEEFCAFEull);
    std::vector<oxram::FastCell> cells;
    cells.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Rng rng = seeder.split();
      const oxram::OxramParams device = sample_device(nominal, variability, rng);
      cells.push_back(oxram::FastCell::formed_lrs(device, stack));
    }
    return cells;
  };
  const auto reset_for = [&](std::size_t i) {
    oxram::ResetOperation reset = reset_template;
    reset.iref = allocation.levels[i % allocation.count()].iref;
    return reset;
  };

  const std::uint64_t retired_before =
      obs::registry().counter("batch.lanes_retired").value();

  std::vector<Sweep> sweeps;
  for (const std::size_t n : {std::size_t{16}, std::size_t{256}, std::size_t{4096}}) {
    if (n > max_lanes) continue;
    Sweep sweep;
    sweep.lanes = n;

    {
      std::vector<oxram::FastCell> cells = make_cells(n);
      const auto start = bench::now();
      for (std::size_t i = 0; i < n; ++i) {
        oxram::reference_pulse(cells[i], set_op);
        oxram::reference_pulse(cells[i], reset_for(i));
      }
      sweep.scalar_cps = static_cast<double>(n) / bench::seconds_since(start);
    }
    {
      std::vector<oxram::FastCell> cells = make_cells(n);
      const auto start = bench::now();
      oxram::CellBatch batch;
      for (std::size_t i = 0; i < n; ++i) batch.add_set(cells[i], set_op);
      batch.run();
      batch.clear();
      for (std::size_t i = 0; i < n; ++i) batch.add_reset(cells[i], reset_for(i));
      batch.run();
      sweep.batch_cps = static_cast<double>(n) / bench::seconds_since(start);
    }
    sweep.speedup = sweep.batch_cps / sweep.scalar_cps;
    sweeps.push_back(sweep);
  }

  const std::uint64_t lanes_retired =
      obs::registry().counter("batch.lanes_retired").value() - retired_before;

  Table table({"cells", "scalar (cells/s)", "batch simd (cells/s)", "vs scalar"});
  for (const Sweep& sweep : sweeps) {
    table.add_row({std::to_string(sweep.lanes), format_scaled(sweep.scalar_cps, 1.0, 0),
                   format_scaled(sweep.batch_cps, 1.0, 0),
                   format_scaled(sweep.speedup, 1.0, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\n  dispatched engine: "
            << oxmlc::num::simd::backend_name(oxmlc::num::simd::active_backend())
            << "\n  lanes retired through termination masking: " << lanes_retired
            << "\n";

  Table csv({"cells", "scalar_cells_per_s", "batch_cells_per_s", "speedup"});
  for (const Sweep& sweep : sweeps) {
    csv.add_row({std::to_string(sweep.lanes), std::to_string(sweep.scalar_cps),
                 std::to_string(sweep.batch_cps), std::to_string(sweep.speedup)});
  }
  bench::save_csv(csv, "batch_throughput.csv");

  // Machine-readable summary for the CI throughput assertions and the
  // compare_bench.py perf gate.
  obs::Json json = bench::bench_json("batch_throughput");
  json.set("engine", oxmlc::num::simd::backend_name(oxmlc::num::simd::active_backend()));
  json.set("lanes_retired", static_cast<double>(lanes_retired));
  obs::Json sweep_list = obs::Json::array();
  for (const Sweep& sweep : sweeps) {
    obs::Json entry = obs::Json::object();
    entry.set("lanes", static_cast<double>(sweep.lanes));
    entry.set("scalar_cells_per_s", sweep.scalar_cps);
    entry.set("batch_cells_per_s", sweep.batch_cps);
    entry.set("speedup", sweep.speedup);
    sweep_list.push_back(std::move(entry));
  }
  json.set("sweeps", std::move(sweep_list));
  bench::save_json(json, "BENCH_batch.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}
