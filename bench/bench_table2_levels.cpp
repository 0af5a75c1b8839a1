// Table 2: the 16-state QLC allocation — IrefR and post-program RHRS per
// binary state — paper values versus this implementation.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "mlc/program.hpp"
#include "util/table.hpp"

int main() {
  using namespace oxmlc;

  bench::print_header("Table 2", "Allocation of the 16 resistance levels",
                      "IrefR 6..36 uA in 2 uA steps; RHRS 267..38.17 kOhm; "
                      "R*I product ~1.37..1.60 V");

  const mlc::LevelAllocation alloc = mlc::QlcConfig::paper_default().allocation;

  Table t({"state", "IrefR (uA)", "RHRS ours (kOhm)", "RHRS paper (kOhm)", "ratio",
           "R*I ours (V)"});
  double worst_ratio = 1.0;
  // Present deepest-first like the paper's table.
  for (std::size_t k = alloc.count(); k-- > 0;) {
    const auto& level = alloc.levels[k];
    double paper_r = 0.0;
    for (const auto& entry : mlc::paper_table2()) {
      if (entry.value == level.value) paper_r = entry.r_hrs;
    }
    const double ratio = level.r_nominal / paper_r;
    worst_ratio = std::max({worst_ratio, ratio, 1.0 / ratio});
    t.add_row({alloc.pattern(level.value), format_scaled(level.iref, 1e-6, 0),
               format_scaled(level.r_nominal, 1e3, 2), format_scaled(paper_r, 1e3, 2),
               format_scaled(ratio, 1.0, 3),
               format_scaled(level.iref * level.r_nominal, 1.0, 3)});
  }
  t.print(std::cout);
  std::cout << "\n  worst paper/ours deviation factor: " << worst_ratio
            << "  (absolute match is not the claim; ISO-dI structure and the\n"
               "   near-constant R*I product are)\n";
  bench::save_csv(t, "table2_levels.csv");
  return 0;
}
