// Ablation 5 (DESIGN.md): choice of the HRS window (compliance-current
// boundaries). The paper bounds the window at 6 uA (variability explodes
// deeper) and 36 uA (read current must stay below ~8 uA at 0.3 V). This
// bench evaluates alternative windows on margin, read current and energy.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "mlc/mc_study.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace oxmlc;

  const std::size_t trials = bench::size_flag(argc, argv, "--trials", 120, 1);
  bench::print_header(
      "Ablation: HRS window", "compliance window choice (4 bits, " +
                                  std::to_string(trials) + " runs/level)",
      "paper 5.1: 6 uA floor for variability, 36 uA ceiling to keep read "
      "currents below ~8 uA for low-power / in-memory workloads");

  struct Window {
    const char* name;
    double i_min, i_max;
  };
  // Window extremes are bounded by physics: above ~60 uA the initial RST
  // current barely exceeds the reference (no decay to detect); below ~4 uA
  // the termination outlasts any practical pulse.
  const Window windows[] = {
      {"paper: 6-36 uA", 6e-6, 36e-6},
      {"deeper: 4-24 uA", 4e-6, 24e-6},
      {"shallower: 10-60 uA", 10e-6, 60e-6},
      {"wider: 6-60 uA", 6e-6, 60e-6},
  };

  Table t({"window", "worst margin", "rel. worst margin", "max read I @0.3V",
           "avg RST energy", "avg latency", "read I < 8 uA"});
  for (const auto& w : windows) {
    mlc::McStudyConfig config = mlc::paper_mc_study(4, trials);
    config.qlc.allocation = mlc::LevelAllocation::iso_delta_i(
        4, w.i_min, w.i_max, mlc::build_calibration_curve(config.qlc, w.i_min, w.i_max, 17));
    const auto dists = mlc::run_level_study(config);
    const auto report = mlc::analyze_margins(dists);

    RunningStats energy, latency;
    for (const auto& d : dists) {
      for (double e : d.energy) energy.add(e);
      for (double l : d.latency) latency.add(l);
    }
    // Worst margin relative to the local level spacing (comparable across
    // windows of different absolute resistance).
    double rel_margin = 1.0;
    for (const auto& m : report.margins) {
      rel_margin = std::min(rel_margin, m.worst_case_margin / m.nominal_spacing);
    }
    const double max_read_i =
        oxram::kReadVoltage / config.qlc.allocation.levels.front().r_nominal;
    t.add_row({w.name, format_si(report.worst_case_margin, "Ohm", 3),
               format_scaled(100.0 * rel_margin, 1.0, 1) + " %",
               format_si(max_read_i, "A", 3), format_si(energy.mean(), "J", 3),
               format_si(latency.mean(), "s", 3), max_read_i < 8e-6 ? "yes" : "NO"});
  }
  t.print(std::cout);

  std::cout << "\n  reading: deeper windows improve *relative* margins (the ISO-dI\n"
               "  resistance spacing grows faster than the spread) and save read\n"
               "  power, but cost programming energy/latency and approach the\n"
               "  termination-latency wall below ~4 uA; shallower windows are\n"
               "  fast and cheap to program but collapse relative margins and\n"
               "  blow the ~8 uA read budget — the paper's 6-36 uA window is\n"
               "  the balanced corner.\n";
  bench::save_csv(t, "ablation_hrs_window.csv");
  return 0;
}
