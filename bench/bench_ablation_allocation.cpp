// Ablation 1 (DESIGN.md): ISO-dI versus ISO-dR level allocation.
//
// The paper adopts ISO-dI because the termination scheme controls current.
// This ablation quantifies the trade: ISO-dR equalizes resistance margins but
// compresses the current steps at the deep end (where the programming
// reference is least accurate), while ISO-dI spends margin where variability
// needs it.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "mlc/mc_study.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace oxmlc;

  const std::size_t trials = bench::size_flag(argc, argv, "--trials", 150, 1);
  bench::print_header("Ablation: allocation", "ISO-dI vs ISO-dR (4 bits, " +
                                                  std::to_string(trials) + " runs/level)",
                      "paper 4.1: 'The ISO-dI approach is adopted as the proposed MLC "
                      "scheme is based on RST current control'");

  const mlc::McStudyConfig config = mlc::paper_mc_study(4, trials);
  const mlc::CalibrationCurve curve =
      mlc::build_calibration_curve(config.qlc, mlc::kPaperIrefMin, mlc::kPaperIrefMax);

  Table t({"allocation", "min nominal dR", "worst-case margin", "overlap",
           "smallest iref step", "margin @ shallow pair", "margin @ deep pair"});

  auto run = [&](const std::string& name, const mlc::LevelAllocation& alloc) {
    mlc::McStudyConfig c = config;
    c.qlc.allocation = alloc;
    const auto dists = mlc::run_level_study(c);
    const auto report = mlc::analyze_margins(dists);
    double min_step = 1.0;
    for (std::size_t v = 0; v + 1 < alloc.count(); ++v) {
      min_step = std::min(min_step, alloc.levels[v].iref - alloc.levels[v + 1].iref);
    }
    t.add_row({name, format_si(report.minimal_nominal_spacing, "Ohm", 3),
               format_si(report.worst_case_margin, "Ohm", 3),
               report.any_overlap ? "YES" : "no", format_si(min_step, "A", 3),
               format_si(report.margins.front().worst_case_margin, "Ohm", 3),
               format_si(report.margins.back().worst_case_margin, "Ohm", 3)});
  };

  run("ISO-dI (paper)", config.qlc.allocation);
  const double r_min = curve.resistance_at(mlc::kPaperIrefMax);
  const double r_max = curve.resistance_at(mlc::kPaperIrefMin);
  run("ISO-dR", mlc::LevelAllocation::iso_delta_r(4, r_min, r_max, curve));

  t.print(std::cout);
  std::cout << "\n  reading: ISO-dR equalizes the resistance spacing, which widens\n"
               "  the shallow-pair margins, but it compresses the deep end in\n"
               "  *current*: the smallest read-current gap collapses well below\n"
               "  the ~0.5 uA sense-amplifier limit (paper 5.2), and the\n"
               "  programming DAC would need non-uniform current steps. ISO-dI\n"
               "  keeps both the termination references and the read currents\n"
               "  uniformly spaced — the natural choice for a current-controlled\n"
               "  scheme (paper 4.1).\n";
  bench::save_csv(t, "ablation_allocation.csv");
  return 0;
}
