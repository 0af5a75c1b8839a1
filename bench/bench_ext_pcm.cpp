// Extension (paper conclusion): the write-termination MLC scheme applied to a
// second analog-programmable resistive technology — a PCM-flavoured device
// preset. The entire programming/read machinery (calibration curve, ISO-dI
// allocation, QlcProgrammer, termination behavior model) runs unchanged; only
// the device parameters and operating window differ.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "mlc/mc_study.hpp"
#include "oxram/presets.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace oxmlc;

  const std::size_t trials = bench::size_flag(argc, argv, "--trials", 120, 1);
  bench::print_header(
      "Extension: PCM-like MLC", "write-termination MLC on a second technology (" +
                                     std::to_string(trials) + " runs/level)",
      "paper conclusion: 'extensions ... will address the application of the "
      "presented MLC design scheme to any resistive RAM technology providing "
      "an analog programming mechanism, such as PCM'");

  // The PCM cell, its stack and pulses; the variability keeps the same
  // +/-5 % discipline.
  mlc::McStudyConfig config;
  config.qlc.set_op = oxram::pcm_like_set();
  config.qlc.reset_op = oxram::pcm_like_reset();
  config.qlc.nominal_cell = oxram::pcm_like_params();
  config.qlc.stack = oxram::pcm_like_stack();
  const mlc::CalibrationCurve curve = mlc::build_calibration_curve(
      config.qlc, oxram::kPcmIrefMin, oxram::kPcmIrefMax, 17);

  // 3 bits on the PCM window (8 levels; the wider window could carry more,
  // but the point is scheme portability, not a PCM record).
  config.qlc.allocation = mlc::LevelAllocation::iso_delta_i(3, oxram::kPcmIrefMin,
                                                            oxram::kPcmIrefMax, curve);
  config.mc.trials = trials;

  const auto dists = mlc::run_level_study(config);
  const auto report = mlc::analyze_margins(dists);

  Table t({"state", "IrefR (uA)", "R nominal (kOhm)", "median (kOhm)", "sigma (kOhm)",
           "margin to next (kOhm)"});
  std::vector<BoxLane> lanes;
  for (std::size_t v = 0; v < dists.size(); ++v) {
    const auto s = dists[v].resistance_summary();
    t.add_row({config.qlc.allocation.pattern(v),
               format_scaled(dists[v].level.iref, 1e-6, 0),
               format_scaled(dists[v].level.r_nominal, 1e3, 1),
               format_scaled(s.median, 1e3, 1), format_scaled(s.stddev, 1e3, 2),
               v + 1 < dists.size()
                   ? format_scaled(report.margins[v].worst_case_margin, 1e3, 2)
                   : std::string("-")});
    lanes.push_back({format_scaled(dists[v].level.iref, 1e-6, 0) + " uA",
                     dists[v].resistance_summary()});
  }
  t.print(std::cout);

  BoxPlotOptions box;
  box.title = "PCM-like 3-bit level distributions";
  box.value_label = "R (Ohm)";
  box.scale = AxisScale::kLog10;
  plot_boxes(std::cout, lanes, box);

  std::cout << "\n  no distribution overlap: " << std::boolalpha << !report.any_overlap
            << "\n  worst-case margin: " << format_si(report.worst_case_margin, "Ohm", 3)
            << "\n  The identical control loop (current-terminated programming "
               "pulse)\n  holds multi-level states on a device with different "
               "conduction,\n  dynamics and operating window — the portability "
               "claim of the\n  paper's conclusion.\n";

  Table csv({"level", "iref_a", "r_median", "r_sigma"});
  for (const auto& d : dists) {
    const auto s = d.resistance_summary();
    csv.add_row({std::to_string(d.level.value), std::to_string(d.level.iref),
                 std::to_string(s.median), std::to_string(s.stddev)});
  }
  bench::save_csv(csv, "ext_pcm.csv");
  return 0;
}
