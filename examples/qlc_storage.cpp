// QLC storage demo: store an arbitrary byte buffer in an OxRAM array at
// 4 bits/cell (two cells per byte), read it back, and report the error rate
// and the density/energy accounting that motivates the paper.
//
// This is the "density enhancement" use case: the same 16x32 array stores 4x
// the data of an SLC array, with programming handled by one terminated RESET
// per cell.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "array/fast_array.hpp"
#include "mlc/program.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace oxmlc;

  const std::string message =
      "oxmlc: quad-level-cell RRAM storage via RESET write termination. "
      "16 HRS states, no program-and-verify, one pulse per cell. "
      "Reproduction of Aziza et al., DATE 2021.";
  std::cout << "payload: " << message.size() << " bytes ("
            << message.size() * 2 << " QLC cells at 4 bits/cell)\n\n";

  // Array sized for the payload: two cells per byte.
  const std::size_t cells_needed = message.size() * 2;
  const std::size_t cols = 32;
  const std::size_t rows = (cells_needed + cols - 1) / cols;

  const mlc::QlcConfig config = mlc::QlcConfig::paper_default(4, 17);
  const mlc::QlcProgrammer programmer(config);
  array::FastArray memory(rows, cols, config.nominal_cell, config.variability, config.stack,
                          /*seed=*/2026);
  memory.form_all();

  // --- write ---
  RunningStats write_energy, write_latency;
  std::size_t cell_index = 0;
  auto write_nibble = [&](std::size_t nibble) {
    const std::size_t r = cell_index / cols;
    const std::size_t c = cell_index % cols;
    const auto outcome =
        programmer.program(memory.at(r, c), nibble, memory.rng_at(r, c));
    write_energy.add(outcome.energy + outcome.set_energy);
    write_latency.add(outcome.latency);
    ++cell_index;
  };
  for (unsigned char byte : message) {
    write_nibble(byte >> 4);
    write_nibble(byte & 0xF);
  }

  // --- read back ---
  Rng read_rng(1);
  cell_index = 0;
  std::string recovered;
  std::size_t nibble_errors = 0;
  auto read_nibble = [&]() {
    const std::size_t r = cell_index / cols;
    const std::size_t c = cell_index % cols;
    ++cell_index;
    return programmer.read_level(memory.at(r, c), read_rng);
  };
  for (unsigned char byte : message) {
    const std::size_t high = read_nibble();
    const std::size_t low = read_nibble();
    const auto reconstructed = static_cast<unsigned char>((high << 4) | low);
    nibble_errors += (high != static_cast<std::size_t>(byte >> 4));
    nibble_errors += (low != static_cast<std::size_t>(byte & 0xF));
    recovered.push_back(static_cast<char>(reconstructed));
  }

  std::cout << "recovered: \"" << recovered.substr(0, 60) << "...\"\n\n";

  Table t({"metric", "value"});
  t.add_row({"cells used", std::to_string(cells_needed)});
  t.add_row({"nibble errors", std::to_string(nibble_errors) + " / " +
                                  std::to_string(cells_needed)});
  t.add_row({"bits per cell", "4 (vs 1 for SLC: 4x density)"});
  t.add_row({"mean write energy/cell", format_si(write_energy.mean(), "J", 3)});
  t.add_row({"worst write energy/cell", format_si(write_energy.max(), "J", 3)});
  t.add_row({"mean RST latency", format_si(write_latency.mean(), "s", 3)});
  t.add_row({"worst RST latency", format_si(write_latency.max(), "s", 3)});
  t.add_row({"payload intact", recovered == message ? "yes" : "NO"});
  t.print(std::cout);

  return recovered == message ? 0 : 1;
}
