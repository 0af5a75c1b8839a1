// Fig. 8a/b: HRS resistance versus RESET compliance (termination) current,
// linear and log scale, over the paper's 6-36 uA window.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "mlc/program.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

namespace {

int run() {
  using namespace oxmlc;

  bench::print_header(
      "Fig. 8", "HRS resistance vs RST compliance current (6-36 uA)",
      "pseudo-exponential decrease from 267 kOhm at 6 uA to 38 kOhm at 36 uA");

  const mlc::CalibrationCurve curve =
      mlc::build_calibration_curve(mlc::QlcConfig::paper_default(), 6e-6, 36e-6, 31);

  Series series{{"R_HRS(IrefR)", '*'}, {}, {}};
  Table t({"IrefR (uA)", "R_HRS measured (kOhm)", "R_HRS paper (kOhm)", "ratio"});
  for (std::size_t k = 0; k < curve.irefs().size(); ++k) {
    series.x.push_back(curve.irefs()[k] * 1e6);
    series.y.push_back(curve.resistances()[k]);
  }
  for (const auto& entry : mlc::paper_table2()) {
    const double r = curve.resistance_at(entry.iref);
    t.add_row({format_scaled(entry.iref, 1e-6, 0), format_scaled(r, 1e3, 2),
               format_scaled(entry.r_hrs, 1e3, 2),
               format_scaled(r / entry.r_hrs, 1.0, 3)});
  }
  t.print(std::cout);

  PlotOptions lin;
  lin.title = "(a) linear scale";
  lin.x_label = "IrefR (uA)";
  lin.y_label = "R_HRS (Ohm)";
  plot_series(std::cout, std::vector<Series>{series}, lin);

  PlotOptions log = lin;
  log.title = "(b) log scale (pseudo-exponential relation)";
  log.y_scale = AxisScale::kLog10;
  plot_series(std::cout, std::vector<Series>{series}, log);

  // Shape summary: monotone decreasing, R*I product drift matches Table 2's.
  bool monotone = true;
  for (std::size_t k = 1; k < series.y.size(); ++k) {
    monotone = monotone && series.y[k] < series.y[k - 1];
  }
  const double product_low = curve.resistance_at(6e-6) * 6e-6;
  const double product_high = curve.resistance_at(36e-6) * 36e-6;
  std::cout << "\n  monotone decreasing: " << std::boolalpha << monotone
            << "\n  R*I product @6 uA  = " << product_low
            << " V (paper: 1.60 V)\n  R*I product @36 uA = " << product_high
            << " V (paper: 1.37 V)\n  product rises toward low currents: "
            << (product_low > product_high) << "\n";

  Table csv({"iref_a", "r_hrs_ohm"});
  for (std::size_t k = 0; k < curve.irefs().size(); ++k) {
    csv.add_row({std::to_string(curve.irefs()[k]), std::to_string(curve.resistances()[k])});
  }
  bench::save_csv(csv, "fig8_hrs_vs_ic.csv");
  return 0;
}

}  // namespace

int main() { return oxmlc::bench::guard(run); }
