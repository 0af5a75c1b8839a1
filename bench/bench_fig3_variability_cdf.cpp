// Fig. 3: HRS and LRS resistance cumulative distributions measured on the
// 8x8 test array over repeated RST/SET cycles (paper: 500 cycles x 64 cells,
// read at 0.3 V).
#include <algorithm>
#include <iostream>
#include <vector>

#include "array/fast_array.hpp"
#include "bench_common.hpp"
#include "util/ascii_plot.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace oxmlc;

  const std::size_t cycles = bench::size_flag(argc, argv, "--trials", 500, 1);
  bench::print_header(
      "Fig. 3", "HRS / LRS distributions, 8x8 array, " + std::to_string(cycles) +
                    " RST/SET cycles",
      "RLRS tight near 1e4 Ohm; RHRS centred in the 1e5..1e6 Ohm decade with a "
      "visibly wider spread (HRS variability dominates)");

  array::FastArray memory(8, 8, oxram::OxramParams{}, oxram::OxramVariability{},
                          oxram::StackConfig{}, /*seed=*/0xF16'3ull);
  memory.form_all();

  // Characterization pulses at the Table 1 cell-level conditions.
  oxram::ResetOperation rst;
  rst.pulse.amplitude = oxram::kCellResetSlVoltage;
  rst.pulse.width = 1e-6;
  rst.v_wl = oxram::kCellResetWlVoltage;
  oxram::SetOperation set;  // characterization SET: completed transition
  set.pulse.amplitude = 1.25;
  set.pulse.width = 300e-9;

  std::vector<double> r_hrs, r_lrs;
  r_hrs.reserve(64 * cycles);
  r_lrs.reserve(64 * cycles);
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    for (std::size_t r = 0; r < 8; ++r) {
      for (std::size_t c = 0; c < 8; ++c) {
        memory.refresh_cycle_rate(r, c);
        memory.at(r, c).apply_reset(rst);
        r_hrs.push_back(memory.at(r, c).read().r_cell);
        memory.refresh_cycle_rate(r, c);
        memory.at(r, c).apply_set(set);
        r_lrs.push_back(memory.at(r, c).read().r_cell);
      }
    }
  }

  const EmpiricalCdf hrs = empirical_cdf(r_hrs);
  const EmpiricalCdf lrs = empirical_cdf(r_lrs);

  Series s_lrs{{"RLRS", 'o'}, lrs.x, lrs.p};
  Series s_hrs{{"RHRS", '#'}, hrs.x, hrs.p};
  PlotOptions options;
  options.title = "cumulative probability vs resistance";
  options.x_label = "resistance (Ohm)";
  options.y_label = "P(R <= r)";
  options.x_scale = AxisScale::kLog10;
  options.height = 22;
  plot_series(std::cout, std::vector<Series>{s_lrs, s_hrs}, options);

  const auto sum_hrs = box_plot_summary(r_hrs);
  const auto sum_lrs = box_plot_summary(r_lrs);
  Table t({"state", "samples", "median (Ohm)", "q1", "q3", "min", "max",
           "decade spread q3/q1"});
  t.add_row({"LRS", std::to_string(r_lrs.size()), format_si(sum_lrs.median, "Ohm", 4),
             format_si(sum_lrs.q1, "Ohm", 4), format_si(sum_lrs.q3, "Ohm", 4),
             format_si(sum_lrs.minimum, "Ohm", 4), format_si(sum_lrs.maximum, "Ohm", 4),
             format_scaled(sum_lrs.q3 / sum_lrs.q1, 1.0, 3)});
  t.add_row({"HRS", std::to_string(r_hrs.size()), format_si(sum_hrs.median, "Ohm", 4),
             format_si(sum_hrs.q1, "Ohm", 4), format_si(sum_hrs.q3, "Ohm", 4),
             format_si(sum_hrs.minimum, "Ohm", 4), format_si(sum_hrs.maximum, "Ohm", 4),
             format_scaled(sum_hrs.q3 / sum_hrs.q1, 1.0, 3)});
  t.print(std::cout);

  std::cout << "\n  shape check vs paper: HRS spread (q3/q1 = "
            << sum_hrs.q3 / sum_hrs.q1 << ") exceeds LRS spread (q3/q1 = "
            << sum_lrs.q3 / sum_lrs.q1 << "): " << std::boolalpha
            << (sum_hrs.q3 / sum_hrs.q1 > sum_lrs.q3 / sum_lrs.q1) << "\n";

  // CSV: the two CDFs, decimated to keep the file small.
  Table csv({"state", "resistance_ohm", "cum_prob"});
  const std::size_t stride = std::max<std::size_t>(1, hrs.x.size() / 2000);
  for (std::size_t k = 0; k < hrs.x.size(); k += stride) {
    csv.add_row({"HRS", std::to_string(hrs.x[k]), std::to_string(hrs.p[k])});
  }
  for (std::size_t k = 0; k < lrs.x.size(); k += stride) {
    csv.add_row({"LRS", std::to_string(lrs.x[k]), std::to_string(lrs.p[k])});
  }
  bench::save_csv(csv, "fig3_variability_cdf.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}
