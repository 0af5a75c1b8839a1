// In-memory computing demo: the paper motivates low read currents with
// "neural network applications where synaptic weights are constantly and
// simultaneously read during inference" (§5.1).
//
// This example stores a small fully-connected layer's weights as QLC
// conductances (4-bit quantization onto the 16 HRS levels) and performs the
// analog matrix-vector multiply the way a crossbar does it in practice:
//  - inputs are pulse-width coded (every row reads at the fixed VREAD = 0.3 V
//    for a time proportional to the activation), which sidesteps the cell's
//    sinh I-V nonlinearity, and
//  - the level -> weight mapping is calibrated against the allocation's
//    actual read conductances (ISO-dI spacing is only approximately linear
//    in conductance).
// The column charge is compared against the float reference, and the read
// current budget shows the HRS-domain energy argument.
#include <cmath>
#include <iostream>
#include <vector>

#include "array/fast_array.hpp"
#include "mlc/program.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace oxmlc;

  constexpr std::size_t kInputs = 16;
  constexpr std::size_t kOutputs = 8;
  std::cout << "analog " << kInputs << "x" << kOutputs
            << " synaptic layer on QLC OxRAM conductances\n\n";

  const mlc::QlcConfig config = mlc::QlcConfig::paper_default(4, 17);
  const mlc::QlcProgrammer programmer(config);

  // Calibrated weight of each level: normalized nominal read conductance.
  std::vector<double> level_weight(16);
  {
    const double g_lo = 1.0 / config.allocation.levels[15].r_nominal;
    const double g_hi = 1.0 / config.allocation.levels[0].r_nominal;
    for (std::size_t v = 0; v < 16; ++v) {
      level_weight[v] =
          (1.0 / config.allocation.levels[v].r_nominal - g_lo) / (g_hi - g_lo);
    }
  }
  auto quantize = [&](double w) {
    std::size_t best = 0;
    for (std::size_t v = 1; v < 16; ++v) {
      if (std::fabs(level_weight[v] - w) < std::fabs(level_weight[best] - w)) best = v;
    }
    return best;
  };

  // Random non-negative weights (differential pairs would handle signs).
  Rng rng(99);
  std::vector<std::vector<double>> weights(kInputs, std::vector<double>(kOutputs));
  for (auto& row : weights) {
    for (double& w : row) w = rng.uniform();
  }

  // Program the synapse array.
  array::FastArray synapses(kInputs, kOutputs, config.nominal_cell, config.variability,
                            config.stack, 7);
  synapses.form_all();
  for (std::size_t i = 0; i < kInputs; ++i) {
    for (std::size_t o = 0; o < kOutputs; ++o) {
      programmer.program(synapses.at(i, o), quantize(weights[i][o]),
                         synapses.rng_at(i, o));
    }
  }

  // One inference with pulse-width-coded activations in [0, 1].
  std::vector<double> activation(kInputs);
  for (double& a : activation) a = rng.uniform();

  const double g_lo = 1.0 / config.allocation.levels[15].r_nominal;
  const double g_hi = 1.0 / config.allocation.levels[0].r_nominal;

  RunningStats rel_error;
  Table t({"output", "analog MAC", "float reference", "rel. error"});
  double peak_column_current = 0.0;
  for (std::size_t o = 0; o < kOutputs; ++o) {
    // Column charge per unit full-scale pulse: Q = sum a_i * I_i(0.3 V).
    double charge = 0.0;
    double reference = 0.0;
    double column_current = 0.0;
    for (std::size_t i = 0; i < kInputs; ++i) {
      const auto read = synapses.at(i, o).read();
      charge += activation[i] * read.current;
      column_current += read.current;
      reference += activation[i] * weights[i][o];
    }
    peak_column_current = std::max(peak_column_current, column_current);
    // Convert charge back to weight units (subtract the g_lo baseline).
    double baseline = 0.0;
    for (double a : activation) baseline += a;
    const double mac = (charge / 0.3 - baseline * g_lo) / (g_hi - g_lo);
    const double err = std::fabs(mac - reference) / std::max(reference, 1e-9);
    rel_error.add(err);
    t.add_row({std::to_string(o), format_scaled(mac, 1.0, 4),
               format_scaled(reference, 1.0, 4),
               format_scaled(100.0 * err, 1.0, 2) + " %"});
  }
  t.print(std::cout);

  std::cout << "\n  mean relative MAC error : "
            << format_scaled(100.0 * rel_error.mean(), 1.0, 2)
            << " %  (4-bit quantization + programming spread + read-stack drops)\n"
            << "  peak column read current: " << format_si(peak_column_current, "A", 3)
            << "  (" << kInputs << " cells read simultaneously)\n"
            << "  per-cell read current   : "
            << format_si(peak_column_current / kInputs, "A", 3)
            << "  (HRS-domain storage keeps this in the low-uA range — the\n"
               "   paper's energy argument for MLC in HRS rather than LRS)\n";
  return rel_error.mean() < 0.1 ? 0 : 1;
}
