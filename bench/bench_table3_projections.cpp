// Table 3: projections beyond quad-level cell — re-allocating the 6-36 uA
// window into 32 (5 bits) and 64 (6 bits) levels and measuring how the
// minimal nominal spacing and the worst-case Monte-Carlo margin collapse.
#include <iostream>

#include "bench_common.hpp"
#include "mlc/projections.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace oxmlc;

  const std::size_t trials = bench::size_flag(argc, argv, "--trials", 150, 1);
  bench::print_header(
      "Table 3", "Projections beyond QLC (" + std::to_string(trials) + " MC runs/level)",
      "4 bits: min dR 2.5 k / worst 2.1 k; 5 bits: 1.24 k / 490; 6 bits: "
      "620 / 90 — sense margin below 0.5 uA makes 6 bits impractical");

  const auto rows = mlc::run_projections({4, 5, 6}, trials);

  Table t({"MLC levels", "min dR paper", "min dR ours", "worst dR paper", "worst dR ours",
           "overlap", "min read dI @0.3V"});
  const char* paper_min[] = {"2.5 kOhm", "1.24 kOhm", "620 Ohm"};
  const char* paper_worst[] = {"2.1 kOhm", "490 Ohm", "90 Ohm"};
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto& row = rows[k];
    t.add_row({std::to_string(row.bits) + " bits/cell", paper_min[k],
               format_si(row.minimal_spacing, "Ohm", 3), paper_worst[k],
               format_si(row.worst_case_margin, "Ohm", 3), row.overlap ? "YES" : "no",
               format_si(row.min_read_delta_i, "A", 3)});
  }
  t.print(std::cout);

  std::cout
      << "\n  shape checks:"
      << "\n   - both margins shrink monotonically with added bits: "
      << std::boolalpha
      << (rows[0].minimal_spacing > rows[1].minimal_spacing &&
          rows[1].minimal_spacing > rows[2].minimal_spacing &&
          rows[0].worst_case_margin > rows[1].worst_case_margin &&
          rows[1].worst_case_margin > rows[2].worst_case_margin)
      << "\n   - 4 bits/cell free of overlap: " << !rows[0].overlap
      << "\n   - 6-bit read current gap below 0.5 uA (sense-amp limit, paper "
         "5.2): "
      << (rows[2].min_read_delta_i < 0.5e-6) << "\n";

  Table csv({"bits", "min_spacing_ohm", "worst_margin_ohm", "overlap", "min_read_di_a"});
  for (const auto& row : rows) {
    csv.add_row({std::to_string(row.bits), std::to_string(row.minimal_spacing),
                 std::to_string(row.worst_case_margin), row.overlap ? "1" : "0",
                 std::to_string(row.min_read_delta_i)});
  }
  bench::save_csv(csv, "table3_projections.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}
