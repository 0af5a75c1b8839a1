// Fig. 10: transient of a terminated RESET at IrefR = 10 uA on the full
// transistor-level write path (Fig. 7a/7b circuit with BL/WL/SL parasitics),
// contrasted with the standard fixed 3.5 us pulse.
#include <algorithm>
#include <iostream>
#include <vector>

#include "array/write_path.hpp"
#include "bench_common.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

namespace {

int run() {
  using namespace oxmlc;

  bench::print_header(
      "Fig. 10", "Terminated RESET transient, IrefR = 10 uA (transistor level)",
      "Icell decays from ~60 uA to 10 uA; termination at ~2.6 us limits RHRS "
      "to ~152 kOhm; the standard 3.5 us pulse would reach ~382 MOhm");

  array::WritePathConfig config;
  config.iref = 10e-6;
  config.pulse_width = 8e-6;
  config.t_stop = 5e-6;
  array::WritePath path(config);
  const array::WritePathResult result = path.run();

  const auto& t = result.transient.times;
  const auto& icell = result.transient.probe_values[array::WritePathResult::kProbeIcell];
  const auto& vsl = result.transient.probe_values[array::WritePathResult::kProbeVsl];
  const auto& vout = result.transient.probe_values[array::WritePathResult::kProbeVout];

  Series s_i{{"Icell (uA)", '*'}, {}, {}};
  Series s_vsl{{"V_SL x 20 (uA-scale)", '-'}, {}, {}};
  Series s_out{{"comparator out x 20", 'o'}, {}, {}};
  for (std::size_t k = 0; k < t.size(); ++k) {
    s_i.x.push_back(t[k] * 1e6);
    s_i.y.push_back(icell[k] * 1e6);
    s_vsl.x.push_back(t[k] * 1e6);
    s_vsl.y.push_back(vsl[k] * 20.0);
    s_out.x.push_back(t[k] * 1e6);
    s_out.y.push_back(vout[k] * 20.0);
  }
  PlotOptions options;
  options.title = "terminated RST transient";
  options.x_label = "time (us)";
  options.y_label = "Icell (uA) / scaled voltages";
  options.height = 24;
  plot_series(std::cout, std::vector<Series>{s_i, s_vsl, s_out}, options);

  // Standard pulse comparison run.
  array::WritePathConfig std_config;
  std_config.pulse_width = 3.5e-6;
  std_config.t_stop = 3.7e-6;
  array::WritePath std_path(std_config);
  const auto std_result = std_path.run();

  Table t_summary({"quantity", "paper", "this work"});
  t_summary.add_row({"termination latency", "2.6 us",
                     format_si(result.t_terminate, "s", 3)});
  t_summary.add_row({"terminated RHRS", "152 kOhm",
                     format_si(result.final_resistance, "Ohm", 4)});
  t_summary.add_row({"standard-pulse RHRS", "~382 MOhm",
                     format_si(std_result.final_resistance, "Ohm", 3)});
  double peak = 0.0;
  for (double i : icell) peak = std::max(peak, i);
  t_summary.add_row({"initial RST current", "~60 uA", format_si(peak, "A", 3)});
  t_summary.add_row({"terminated / standard R ratio", "~2500x",
                     format_scaled(std_result.final_resistance / result.final_resistance,
                                   1.0, 0) + "x"});
  t_summary.print(std::cout);

  std::cout << "\n  solver: " << result.transient.steps_accepted << " accepted steps, "
            << result.transient.newton_iterations << " Newton iterations\n";

  Table csv({"t_s", "icell_a", "v_sl", "v_comparator_out", "v_cell", "gap_m"});
  const auto& vcell = result.transient.probe_values[array::WritePathResult::kProbeVcell];
  const auto& gap = result.transient.probe_values[array::WritePathResult::kProbeGap];
  for (std::size_t k = 0; k < t.size(); ++k) {
    csv.add_row({std::to_string(t[k]), std::to_string(icell[k]), std::to_string(vsl[k]),
                 std::to_string(vout[k]), std::to_string(vcell[k]),
                 std::to_string(gap[k])});
  }
  bench::save_csv(csv, "fig10_transient.csv");
  return 0;
}

}  // namespace

int main() { return oxmlc::bench::guard(run); }
