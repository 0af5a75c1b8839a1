// Fig. 1c: quasi-static I-V characteristic of the 1T-1R cell (log scale).
//
// Sweep protocol (standard butterfly measurement): starting from LRS, the SL
// is swept up (RESET direction) and back, then the BL is swept up (SET
// direction) and back, holding each bias for a dwell long enough for the
// state to follow. The expected shape: abrupt SET near +0.7..1 V with the
// current clamped at the compliance IC, gradual RESET with Ireset ~ IC, and
// orders-of-magnitude current contrast at low bias.
#include <cmath>
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "oxram/fast_cell.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

namespace {

int run() {
  using namespace oxmlc;
  using oxram::FastCell;
  using oxram::Polarity;

  bench::print_header(
      "Fig. 1c", "1T-1R OxRAM I-V characteristic (log scale)",
      "abrupt SET near +0.7 V clamped at IC, gradual RESET with Ireset ~ IC, "
      "hysteretic loop spanning ~1e-9..1e-4 A");

  const oxram::OxramParams params;
  const oxram::StackConfig stack;
  FastCell cell = FastCell::formed_lrs(params, stack);

    // Dwell per bias point: long enough to be quasi-static for conduction,
  // short enough that switching happens near the threshold rather than
  // creeping at low bias (measurement sweeps are ~ms over volts; the
  // equivalent per-20 mV dwell at our accelerated rate constants is ~1 us).
  const double dwell = 100e-9;
  const double v_step = 0.02;
  const double v_wl = 2.0;      // Table 1 SET/measurement gate bias

  Table t({"branch", "V_bias (V)", "I_cell (A)", "gap (nm)"});
  Series set_branch{{"SET sweep (V>0)", '+'}, {}, {}};
  Series rst_branch{{"RST sweep (V<0)", 'x'}, {}, {}};

  auto record = [&](Polarity polarity, double v_drive) {
    const auto op = solve_stack(cell.params(), cell.gap(), stack, polarity, v_drive, v_wl);
    const double v_signed = polarity == Polarity::kReset ? -v_drive : v_drive;
    // Quasi-static state evolution at this bias.
    const double v_cell_signed =
        polarity == Polarity::kReset ? -op.v_cell : op.v_cell;
    cell.set_gap(oxram::advance_gap(cell.params(), v_cell_signed, cell.gap(), false, dwell));
    const double i = std::max(op.current, 1e-12);
    t.add_row({polarity == Polarity::kReset ? "RST" : "SET",
               format_scaled(v_signed, 1.0, 3), format_si(i, "A", 4),
               format_scaled(cell.gap(), 1e-9, 3)});
    auto& series = polarity == Polarity::kReset ? rst_branch : set_branch;
    series.x.push_back(std::fabs(v_signed));
    series.y.push_back(i);
  };

  // RESET branch: 0 -> 1.4 V on SL and back (cell starts LRS).
  for (double v = v_step; v <= 1.4 + 1e-9; v += v_step) record(Polarity::kReset, v);
  for (double v = 1.4; v >= v_step - 1e-9; v -= v_step) record(Polarity::kReset, v);
  // SET branch: 0 -> 1.4 V on BL and back (cell now HRS).
  for (double v = v_step; v <= 1.4 + 1e-9; v += v_step) record(Polarity::kSet, v);
  for (double v = 1.4; v >= v_step - 1e-9; v -= v_step) record(Polarity::kSet, v);

  PlotOptions options;
  options.title = "1T-1R I-V (|V| on x, |I| log on y)";
  options.x_label = "|V bias| (V)";
  options.y_label = "|I cell| (A)";
  options.y_scale = AxisScale::kLog10;
  options.height = 24;
  plot_series(std::cout, std::vector<Series>{set_branch, rst_branch}, options);

  // Shape assertions echoed as a mini-report.
  double i_set_max = 0.0, i_rst_max = 0.0;
  for (double i : set_branch.y) i_set_max = std::max(i_set_max, i);
  for (double i : rst_branch.y) i_rst_max = std::max(i_rst_max, i);
  std::cout << "\n  compliance-clamped SET current IC  = " << format_si(i_set_max, "A", 3)
            << "\n  max RESET current Ireset           = " << format_si(i_rst_max, "A", 3)
            << "\n  Ireset / IC                        = " << i_rst_max / i_set_max
            << "  (paper: comparable magnitudes, Fig. 1c)\n";

  bench::save_csv(t, "fig1c_iv.csv");
  return 0;
}

}  // namespace

int main() { return oxmlc::bench::guard(run); }
