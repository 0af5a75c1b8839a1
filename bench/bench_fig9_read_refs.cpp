// Fig. 9: the MLC allocation as a segmentation of the read I-V plane, and the
// placement of the 15 read reference currents between consecutive states.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "mlc/program.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

int main() {
  using namespace oxmlc;

  bench::print_header(
      "Fig. 9", "MLC allocation strategy and READ reference placement",
      "each state = one I-V slope 1/Rx; 15 reference currents sit between the "
      "currents of consecutive states at VRead = 0.3 V");

  const mlc::QlcConfig config = mlc::QlcConfig::paper_default();
  const mlc::QlcProgrammer programmer(config);

  // I-V fan: each level's line I = V / Rx up to VRead.
  std::vector<Series> fan;
  for (std::size_t v = 0; v < config.allocation.count(); v += 3) {
    Series s{{"state " + config.allocation.pattern(v), static_cast<char>('0' + v % 10)},
             {},
             {}};
    for (double volt = 0.0; volt <= 0.31; volt += 0.01) {
      s.x.push_back(volt);
      s.y.push_back(volt / config.allocation.levels[v].r_nominal);
    }
    fan.push_back(std::move(s));
  }
  PlotOptions options;
  options.title = "I-V plane segmentation (subset of states)";
  options.x_label = "V cell (V)";
  options.y_label = "I cell (A)";
  plot_series(std::cout, fan, options);

  // Reference placement table.
  const auto& refs = programmer.read_references();
  Table t({"between states", "I(state k) (uA)", "Iref_k (uA)", "I(state k+1) (uA)",
           "margin to lower (uA)", "margin to upper (uA)"});
  // Nominal read currents through the full read stack.
  std::vector<double> level_current;
  for (const auto& level : config.allocation.levels) {
    const double gap = oxram::gap_for_resistance(config.nominal_cell, oxram::kReadVoltage,
                                                 level.r_nominal);
    const oxram::FastCell probe(config.nominal_cell, config.stack, gap);
    level_current.push_back(probe.read().current);
  }
  double min_margin = 1.0;
  for (std::size_t k = 0; k + 1 < config.allocation.count(); ++k) {
    // refs ascend; state k (shallow) has the higher current.
    const double ref = refs[refs.size() - 1 - k];
    const double upper = level_current[k];
    const double lower = level_current[k + 1];
    min_margin = std::min({min_margin, upper - ref, ref - lower});
    t.add_row({config.allocation.pattern(k) + "/" + config.allocation.pattern(k + 1),
               format_scaled(upper, 1e-6, 3), format_scaled(ref, 1e-6, 3),
               format_scaled(lower, 1e-6, 3), format_scaled(ref - lower, 1e-6, 3),
               format_scaled(upper - ref, 1e-6, 3)});
  }
  t.print(std::cout);

  std::cout << "\n  all reference currents strictly between neighbours: "
            << std::boolalpha << (min_margin > 0.0)
            << "\n  smallest current-side margin: " << format_si(min_margin, "A", 3)
            << "\n  max read current (state 0000): " << format_si(level_current[0], "A", 3)
            << "  (paper keeps reads below ~8 uA)\n";
  bench::save_csv(t, "fig9_read_refs.csv");
  return 0;
}
