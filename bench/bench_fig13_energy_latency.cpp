// Fig. 13a/b: energy/cell and RST latency distributions (box plots) over the
// 16 compliance currents, plus the paper's headline averages.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "mlc/mc_study.hpp"
#include "util/ascii_plot.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace oxmlc;

  const std::size_t trials = bench::size_flag(argc, argv, "--trials", 500, 1);
  bench::print_header(
      "Fig. 13", "Energy/cell and RST latency box plots (" + std::to_string(trials) +
                     " MC runs x 16 levels)",
      "low compliance currents cost more: max energy ~150 pJ and max latency "
      "~4.01 us at 6 uA; averages 25 pJ/cell and 1.65 us");

  mlc::McStudyConfig config = mlc::paper_mc_study(4, trials);
  const auto dists = mlc::run_level_study(config);

  std::vector<BoxLane> energy_lanes, latency_lanes;
  RunningStats all_energy, all_latency;
  double max_energy = 0.0, max_latency = 0.0;
  for (const auto& d : dists) {
    energy_lanes.push_back(
        {format_scaled(d.level.iref, 1e-6, 0) + " uA", d.energy_summary()});
    latency_lanes.push_back(
        {format_scaled(d.level.iref, 1e-6, 0) + " uA", d.latency_summary()});
    for (double e : d.energy) {
      all_energy.add(e);
      max_energy = std::max(max_energy, e);
    }
    for (double l : d.latency) {
      all_latency.add(l);
      max_latency = std::max(max_latency, l);
    }
  }

  BoxPlotOptions box_e;
  box_e.title = "(a) RST energy per cell";
  box_e.value_label = "energy (J)";
  plot_boxes(std::cout, energy_lanes, box_e);

  BoxPlotOptions box_l;
  box_l.title = "(b) RST latency";
  box_l.value_label = "latency (s)";
  plot_boxes(std::cout, latency_lanes, box_l);

  Table t({"quantity", "paper", "this work"});
  t.add_row({"average RST energy/cell", "25 pJ", format_si(all_energy.mean(), "J", 3)});
  t.add_row({"max RST energy (at 6 uA)", "150 pJ", format_si(max_energy, "J", 3)});
  t.add_row({"average RST latency", "1.65 us", format_si(all_latency.mean(), "s", 3)});
  t.add_row({"max RST latency (at 6 uA)", "4.01 us", format_si(max_latency, "s", 3)});
  const oxram::SetOperation set_op;
  t.add_row({"SET pulse width", "~100 ns", format_si(set_op.pulse.width, "s", 3)});
  t.print(std::cout);

  // Trend: both worst cases must sit at the lowest compliance current.
  const auto& deepest = dists.back();
  bool worst_at_6ua = true;
  for (const auto& d : dists) {
    worst_at_6ua = worst_at_6ua &&
                   d.energy_summary().median <= deepest.energy_summary().median + 1e-15 &&
                   d.latency_summary().median <= deepest.latency_summary().median + 1e-15;
  }
  std::cout << "\n  worst-case energy AND latency at 6 uA: " << std::boolalpha
            << worst_at_6ua << " (paper: yes)\n";

  Table csv({"iref_a", "e_median_j", "e_q1", "e_q3", "e_max", "t_median_s", "t_q1",
             "t_q3", "t_max"});
  for (const auto& d : dists) {
    const auto e = d.energy_summary();
    const auto l = d.latency_summary();
    csv.add_row({std::to_string(d.level.iref), std::to_string(e.median),
                 std::to_string(e.q1), std::to_string(e.q3), std::to_string(e.maximum),
                 std::to_string(l.median), std::to_string(l.q1), std::to_string(l.q3),
                 std::to_string(l.maximum)});
  }
  bench::save_csv(csv, "fig13_energy_latency.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}
