// Fig. 12: standard deviation of the HRS distributions and the resistance
// margin between adjacent states versus the RST compliance current.
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
      "Fig. 12", "sigma(R_HRS) and adjacent margin vs compliance current",
      "sigma evolution follows the margin evolution; both grow roughly "
      "exponentially as the compliance current decreases");

  mlc::McStudyConfig config = mlc::paper_mc_study(4, trials);
  const auto dists = mlc::run_level_study(config);
  const auto report = mlc::analyze_margins(dists);

  Series s_sigma{{"sigma(R)", 's'}, {}, {}};
  Series s_margin{{"worst-case margin", 'm'}, {}, {}};
  Table t({"IrefR (uA)", "sigma (kOhm)", "worst margin to next (kOhm)",
           "nominal spacing (kOhm)"});
  for (std::size_t v = 0; v < dists.size(); ++v) {
    const double iref_ua = dists[v].level.iref * 1e6;
    const double sigma = dists[v].resistance_summary().stddev;
    s_sigma.x.push_back(iref_ua);
    s_sigma.y.push_back(sigma);
    std::string margin_cell = "-", spacing_cell = "-";
    if (v + 1 < dists.size()) {
      s_margin.x.push_back(iref_ua);
      s_margin.y.push_back(std::max(report.margins[v].worst_case_margin, 1.0));
      margin_cell = format_scaled(report.margins[v].worst_case_margin, 1e3, 2);
      spacing_cell = format_scaled(report.margins[v].nominal_spacing, 1e3, 2);
    }
    t.add_row({format_scaled(dists[v].level.iref, 1e-6, 0),
               format_scaled(sigma, 1e3, 3), margin_cell, spacing_cell});
  }
  t.print(std::cout);

  PlotOptions options;
  options.title = "sigma and margin vs IrefR (log y)";
  options.x_label = "IrefR (uA)";
  options.y_label = "Ohm";
  options.y_scale = AxisScale::kLog10;
  plot_series(std::cout, std::vector<Series>{s_sigma, s_margin}, options);

  // Trend checks.
  const double sigma_low = dists.back().resistance_summary().stddev;   // 6 uA
  const double sigma_high = dists.front().resistance_summary().stddev;  // 36 uA
  std::cout << "\n  sigma(6 uA) / sigma(36 uA) = " << sigma_low / sigma_high
            << "  (paper: strong growth toward low currents)"
            << "\n  margin(deep end) / margin(shallow end) = "
            << report.margins.back().worst_case_margin /
                   report.margins.front().worst_case_margin
            << "\n  'sigma follows margin': both monotone trends up toward 6 uA\n";

  Table csv({"iref_a", "sigma_ohm", "worst_margin_ohm", "nominal_spacing_ohm"});
  for (std::size_t v = 0; v + 1 < dists.size(); ++v) {
    csv.add_row({std::to_string(dists[v].level.iref),
                 std::to_string(dists[v].resistance_summary().stddev),
                 std::to_string(report.margins[v].worst_case_margin),
                 std::to_string(report.margins[v].nominal_spacing)});
  }
  bench::save_csv(csv, "fig12_margin_sigma.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}
