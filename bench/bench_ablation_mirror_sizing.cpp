// Ablation 3 (DESIGN.md): termination-mirror sizing versus margin.
//
// The margin budget of Figs. 11-12 is spent almost entirely on the matching
// of the two current mirrors. Pelgrom's law prices accuracy in area; this
// bench sweeps the mirror area and reports the effective reference error and
// the resulting worst-case adjacent margin at both ends of the window.
#include <iostream>

#include "bench_common.hpp"
#include "mlc/mc_study.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace oxmlc;

  const std::size_t trials = bench::size_flag(argc, argv, "--trials", 150, 1);
  bench::print_header(
      "Ablation: mirror sizing", "termination accuracy vs mirror area",
      "implicit in the paper's 'minimal area overhead (dozens of transistors "
      "per bit-line)' claim: matching-grade mirrors are the area cost");

  struct Sizing {
    const char* name;
    double w, l;      // NMOS copy mirror; others scaled proportionally
  };
  const Sizing sweep[] = {
      {"minimal (10u/0.5u)", 10e-6, 0.5e-6},
      {"small (40u/1u)", 40e-6, 1e-6},
      {"default (120u/3u)", 120e-6, 3e-6},
      {"huge (240u/6u)", 240e-6, 6e-6},
  };

  Table t({"mirror sizing", "area (um^2, one leg)", "sigma(Iref)/Iref @36uA",
           "@6uA", "worst margin shallow pair", "worst margin deep pair", "overlap"});

  for (const auto& s : sweep) {
    mlc::McStudyConfig config = mlc::paper_mc_study(4, trials);
    auto& sizing = config.qlc.termination.sizing;
    sizing.copy_mirror = dev::tech130hv::nmos(s.w, s.l);
    sizing.reference_mirror = dev::tech130hv::pmos(s.w / 2.0, s.l);
    const auto dists = mlc::run_level_study(config);
    const auto report = mlc::analyze_margins(dists);
    t.add_row({s.name, format_scaled(2.0 * s.w * s.l * 1e12, 1.0, 1),
               format_scaled(100.0 * config.qlc.termination.iref_sigma_rel(36e-6), 1.0, 2)
                   + " %",
               format_scaled(100.0 * config.qlc.termination.iref_sigma_rel(6e-6), 1.0, 2)
                   + " %",
               format_si(report.margins.front().worst_case_margin, "Ohm", 3),
               format_si(report.margins.back().worst_case_margin, "Ohm", 3),
               report.any_overlap ? "YES" : "no"});
  }
  t.print(std::cout);

  std::cout << "\n  reading: QLC needs matching-grade mirror area; at minimal\n"
               "  sizing the shallow-pair margins collapse (overlap), which is\n"
               "  why the write driver pays hundreds of um^2 per bit line.\n";
  bench::save_csv(t, "ablation_mirror_sizing.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}
