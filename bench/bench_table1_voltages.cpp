// Table 1: standard operating voltages (cell level), plus the MLC-mode
// operating point this implementation adds for the terminated RESET.
#include <iostream>

#include "bench_common.hpp"
#include "oxram/fast_cell.hpp"
#include "util/table.hpp"

namespace {

int run() {
  using namespace oxmlc;

  bench::print_header("Table 1", "Standard operating voltages (cell level)",
                      "FMG: WL 2 V / BL 3.3 V; RST: WL 2.5 V / SL 1.2 V; "
                      "SET: WL 2 V / BL 1.2 V; READ: WL 2.5 V / BL 0.2-0.3 V");

  const oxram::SetOperation set;
  const oxram::SetOperation& forming = oxram::kForming;
  oxram::ResetOperation rst_std;     // standard fixed pulse
  oxram::ResetOperation rst_mlc;     // terminated MLC RESET
  rst_mlc.iref = 10e-6;

  Table t({"operation", "WL (V)", "drive line", "drive (V)", "pulse width", "notes"});
  t.add_row({"FMG", std::to_string(forming.v_wl).substr(0, 4), "BL",
             format_scaled(forming.pulse.amplitude, 1.0, 2),
             format_si(forming.pulse.width, "s", 3), "one-time forming"});
  t.add_row({"SET", format_scaled(set.v_wl, 1.0, 2), "BL",
             format_scaled(set.pulse.amplitude, 1.0, 2),
             format_si(set.pulse.width, "s", 3), "~100 ns, compliance via WL"});
  t.add_row({"RST (std)", format_scaled(rst_std.v_wl, 1.0, 2), "SL",
             format_scaled(rst_std.pulse.amplitude, 1.0, 3),
             format_si(rst_std.pulse.width, "s", 3), "fixed 3.5 us worst-case pulse"});
  t.add_row({"RST (MLC)", format_scaled(rst_mlc.v_wl, 1.0, 2), "SL",
             format_scaled(rst_mlc.pulse.amplitude, 1.0, 3), "terminated",
             "stopped at Icell = IrefR"});
  t.add_row({"READ", format_scaled(oxram::kReadWlVoltage, 1.0, 2), "BL",
             format_scaled(oxram::kReadVoltage, 1.0, 2), "-",
             "15 reference comparisons (QLC)"});

  t.print(std::cout);
  bench::save_csv(t, "table1_voltages.csv");

  std::cout << "\nNote: the MLC RESET drives the SL harder than the cell-level\n"
               "Table 1 values because the 3.3 V termination circuit (mirror\n"
               "input) sits in series on the bit line; DESIGN.md discusses the\n"
               "operating-point calibration.\n";
  return 0;
}

}  // namespace

int main() { return oxmlc::bench::guard(run); }
