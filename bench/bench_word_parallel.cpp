// Architecture validation (Fig. 6 / Fig. 7b, §4.2): word-parallel terminated
// RESET at transistor level — "multi-bit access is guaranteed as one RST
// write termination is associated with a single bit-line".
//
// Four bit slices share one source line and word line; each carries its own
// Fig. 7a termination circuit and a program-inhibit clamp. The bench programs
// the word to four different levels in ONE shared RESET pulse and shows the
// staggered per-bit stops.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "array/word_path.hpp"
#include "bench_common.hpp"
#include "mlc/levels.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

namespace {

int run() {
  using namespace oxmlc;

  bench::print_header(
      "Word-parallel RST", "4 bits, one shared SL pulse, per-BL termination",
      "(architecture claim, §4.2: word programming = full SET, then one "
      "parallel RST with per-bit-line termination selected by the data bus)");

  array::WordPathConfig config;
  config.irefs = {34e-6, 24e-6, 14e-6, 8e-6};
  array::WordPath path(config);
  const array::WordPathResult result = path.run();

  Table t({"bit", "IrefR (uA)", "terminated", "stop time (us)", "R final (kOhm)",
           "nearest Table 2 state"});
  for (std::size_t b = 0; b < result.bits.size(); ++b) {
    // Nearest paper state by resistance.
    const auto& table2 = mlc::paper_table2();
    std::size_t nearest = 0;
    for (std::size_t k = 1; k < table2.size(); ++k) {
      if (std::fabs(table2[k].r_hrs - result.bits[b].final_resistance) <
          std::fabs(table2[nearest].r_hrs - result.bits[b].final_resistance)) {
        nearest = k;
      }
    }
    t.add_row({std::to_string(b), format_scaled(config.irefs[b], 1e-6, 0),
               result.bits[b].terminated ? "yes" : "NO",
               format_scaled(result.bits[b].t_terminate, 1e-6, 2),
               format_scaled(result.bits[b].final_resistance, 1e3, 1),
               format_scaled(table2[nearest].r_hrs, 1e3, 1) + " k (" +
                   std::to_string(table2[nearest].value) + ")"});
  }
  t.print(std::cout);
  std::cout << "\n  word latency (slowest bit): "
            << format_si(result.word_latency, "s", 3)
            << "\n  solver: " << result.transient.steps_accepted << " steps, "
            << result.transient.newton_iterations << " Newton iterations for the "
            << "4-slice netlist\n";

  // Per-bit current decays on one time axis.
  std::vector<Series> series;
  const char markers[] = {'0', '1', '2', '3'};
  for (std::size_t b = 0; b < result.bits.size(); ++b) {
    Series s{{"bit " + std::to_string(b), markers[b]}, {}, {}};
    const auto& icell = result.transient.probe_values[2 * b];
    for (std::size_t k = 0; k < result.transient.times.size(); ++k) {
      s.x.push_back(result.transient.times[k] * 1e6);
      s.y.push_back(std::max(icell[k], 1e-9));
    }
    series.push_back(std::move(s));
  }
  PlotOptions options;
  options.title = "per-bit cell currents during the shared RST pulse";
  options.x_label = "time (us)";
  options.y_label = "I cell (A)";
  options.y_scale = AxisScale::kLog10;
  plot_series(std::cout, series, options);

  Table csv({"bit", "iref_a", "t_stop_s", "r_final_ohm"});
  for (std::size_t b = 0; b < result.bits.size(); ++b) {
    csv.add_row({std::to_string(b), std::to_string(config.irefs[b]),
                 std::to_string(result.bits[b].t_terminate),
                 std::to_string(result.bits[b].final_resistance)});
  }
  bench::save_csv(csv, "word_parallel.csv");
  return 0;
}

}  // namespace

int main() { return oxmlc::bench::guard(run); }
