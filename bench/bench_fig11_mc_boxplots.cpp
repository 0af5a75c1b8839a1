// Fig. 11a/b: HRS resistance box plots after Monte-Carlo analysis across the
// 16 RST compliance currents (paper: 500 runs per level).
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "mlc/mc_study.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace oxmlc;

  const std::size_t trials = bench::size_flag(argc, argv, "--trials", 500, 1);
  bench::print_header(
      "Fig. 11", "HRS box plots, " + std::to_string(trials) + " MC runs x 16 levels",
      "uniform tight boxes; spread grows toward low compliance currents; no "
      "distribution overlap anywhere (4 bits/cell feasible)");

  mlc::McStudyConfig config = mlc::paper_mc_study(4, trials);
  const auto dists = mlc::run_level_study(config);
  const auto report = mlc::analyze_margins(dists);

  // (a) all 16 levels.
  std::vector<BoxLane> lanes;
  for (const auto& d : dists) {
    lanes.push_back({format_scaled(d.level.iref, 1e-6, 0) + " uA", d.resistance_summary()});
  }
  BoxPlotOptions box;
  box.title = "(a) RHRS distributions per compliance current";
  box.value_label = "R_HRS (Ohm)";
  box.scale = AxisScale::kLog10;
  plot_boxes(std::cout, lanes, box);

  // (b) expanded view, 22..36 uA.
  std::vector<BoxLane> expanded;
  for (const auto& d : dists) {
    if (d.level.iref >= 22e-6 - 1e-9) {
      expanded.push_back(
          {format_scaled(d.level.iref, 1e-6, 0) + " uA", d.resistance_summary()});
    }
  }
  BoxPlotOptions box_b;
  box_b.title = "(b) expanded view, 22-36 uA";
  box_b.value_label = "R_HRS (Ohm)";
  plot_boxes(std::cout, expanded, box_b);

  Table t({"state", "IrefR (uA)", "median (kOhm)", "sigma (kOhm)", "min (kOhm)",
           "max (kOhm)", "margin to next (kOhm)"});
  for (std::size_t v = 0; v < dists.size(); ++v) {
    const auto s = dists[v].resistance_summary();
    const std::string margin =
        v + 1 < dists.size()
            ? format_scaled(report.margins[v].worst_case_margin, 1e3, 2)
            : "-";
    t.add_row({config.qlc.allocation.pattern(v),
               format_scaled(dists[v].level.iref, 1e-6, 0), format_scaled(s.median, 1e3, 2),
               format_scaled(s.stddev, 1e3, 3), format_scaled(s.minimum, 1e3, 2),
               format_scaled(s.maximum, 1e3, 2), margin});
  }
  t.print(std::cout);

  std::cout << "\n  any distribution overlap: " << std::boolalpha << report.any_overlap
            << "  (paper: none)"
            << "\n  worst-case margin: " << format_si(report.worst_case_margin, "Ohm", 3)
            << "  (paper: 2.1 kOhm)"
            << "\n  largest margin (deep end): "
            << format_si(report.margins.back().worst_case_margin, "Ohm", 3)
            << "  (paper: 69 kOhm)\n";

  Table csv({"level", "iref_a", "r_median", "r_sigma", "r_min", "r_max", "r_q1", "r_q3"});
  for (const auto& d : dists) {
    const auto s = d.resistance_summary();
    csv.add_row({std::to_string(d.level.value), std::to_string(d.level.iref),
                 std::to_string(s.median), std::to_string(s.stddev),
                 std::to_string(s.minimum), std::to_string(s.maximum),
                 std::to_string(s.q1), std::to_string(s.q3)});
  }
  // MC scheduling telemetry: the before/after line for the chunked-claiming
  // runner (chunks claimed, throughput, thread count). The same registry
  // snapshot lands in the metrics sidecar written by save_csv.
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  std::cout << "\n  mc scheduling: threads=" << snapshot.gauge("mc.threads")
            << "  chunks_claimed=" << snapshot.counter("mc.chunks_claimed")
            << "  trials=" << snapshot.counter("mc.trials")
            << "  trials/s=" << format_si(snapshot.gauge("mc.trials_per_second"), "", 3)
            << "  trial_failures=" << snapshot.counter("mc.trial_failures") << "\n";

  bench::save_csv(csv, "fig11_mc_boxplots.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}
