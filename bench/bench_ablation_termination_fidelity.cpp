// Ablation 4 (DESIGN.md): behavioral vs transistor-level termination circuit.
//
// The Monte-Carlo benches run on the fast path, whose termination is a
// calibrated behavioral threshold; this ablation quantifies the residual
// error of that substitution against the full Fig. 7a transistor circuit.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "array/write_path.hpp"
#include "bench_common.hpp"
#include "oxram/fast_cell.hpp"
#include "util/table.hpp"

namespace {

int run() {
  using namespace oxmlc;

  bench::print_header(
      "Ablation: termination fidelity",
      "behavioral threshold (fast path) vs Fig. 7a transistor circuit (MNA)",
      "n/a (methodology ablation: justifies the fast Monte-Carlo substrate)");

  Table t({"IrefR (uA)", "R spice (kOhm)", "R fast (kOhm)", "R error", "lat spice (us)",
           "lat fast (us)", "lat error"});

  double worst_r_err = 0.0;
  for (double iref_ua : {8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0}) {
    array::WritePathConfig config;
    config.iref = iref_ua * 1e-6;
    config.pulse_width = 8e-6;
    config.t_stop = 5e-6;
    array::WritePath path(config);
    const auto spice = path.run();

    oxram::FastCell cell =
        oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
    cell.apply_set(oxram::SetOperation{});
    oxram::ResetOperation op;
    op.iref = iref_ua * 1e-6;
    op.pulse.width = 8e-6;
    const auto fast = cell.apply_reset(op);
    const double r_fast = cell.read().r_cell;

    const double r_err = r_fast / spice.final_resistance - 1.0;
    const double l_err = fast.t_terminate / spice.t_terminate - 1.0;
    worst_r_err = std::max(worst_r_err, std::fabs(r_err));
    t.add_row({format_scaled(iref_ua, 1.0, 0),
               format_scaled(spice.final_resistance, 1e3, 1),
               format_scaled(r_fast, 1e3, 1), format_scaled(100.0 * r_err, 1.0, 1) + " %",
               format_scaled(spice.t_terminate, 1e-6, 2),
               format_scaled(fast.t_terminate, 1e-6, 2),
               format_scaled(100.0 * l_err, 1.0, 1) + " %"});
  }
  t.print(std::cout);

  std::cout << "\n  worst programmed-resistance disagreement: "
            << format_scaled(100.0 * worst_r_err, 1.0, 1)
            << " %  (level spacing is >= 8 %, so the fast path preserves the\n"
               "  margin structure the MC benches measure)\n";
  bench::save_csv(t, "ablation_termination_fidelity.csv");
  return 0;
}

}  // namespace

int main() { return oxmlc::bench::guard(run); }
