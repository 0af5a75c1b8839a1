// Quickstart: form one 1T-1R OxRAM cell, program a 4-bit value with the
// RESET write-termination scheme, and read it back.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "mlc/program.hpp"
#include "oxram/fast_cell.hpp"
#include "util/table.hpp"

int main() {
  using namespace oxmlc;

  std::cout << "oxmlc quickstart: QLC (4 bits/cell) via RESET write termination\n\n";

  // 1. The device and its electrical environment (paper defaults: 130 nm HV
  //    CMOS access transistor, termination-mirror bit-line sink).
  const oxram::OxramParams device;      // calibrated HfO2 OxRAM compact model
  const oxram::StackConfig stack;       // 1T-1R write/read stack

  // 2. One-time FORMING (Table 1: BL = 3.3 V).
  oxram::FastCell cell(device, stack, device.g_virgin, /*virgin=*/true);
  cell.apply_set(oxram::kForming);
  std::cout << "after FORMING: R = " << format_si(cell.read().r_cell, "Ohm", 3) << "\n";

  // 3. A QLC programmer: ISO-dI allocation over the paper's 6-36 uA window,
  //    read references derived from the calibration curve of the paper's
  //    nominal cell (`device` in `stack`).
  const mlc::QlcConfig config = mlc::QlcConfig::paper_default(4, 17);
  const mlc::QlcProgrammer programmer(config);

  // 4. Program the value 13 ('1101'): one SET, one terminated RESET — no
  //    read-verify iteration anywhere.
  Rng rng(42);
  const std::size_t value = 13;
  const mlc::ProgramOutcome outcome = programmer.program(cell, value, rng);

  std::cout << "programmed '" << config.allocation.pattern(value) << "' (value " << value
            << "):\n"
            << "  termination reference : "
            << format_si(config.allocation.levels[value].iref, "A", 3) << "\n"
            << "  write terminated      : " << (outcome.terminated ? "yes" : "no") << "\n"
            << "  RST latency           : " << format_si(outcome.latency, "s", 3) << "\n"
            << "  RST energy            : " << format_si(outcome.energy, "J", 3) << "\n"
            << "  programmed resistance : " << format_si(outcome.resistance, "Ohm", 4)
            << "\n";

  // 5. Read back through the 15-reference sense bank.
  const std::size_t read_back = programmer.read_level(cell, rng);
  std::cout << "read back value         : " << read_back << " ('"
            << config.allocation.pattern(read_back) << "')  "
            << (read_back == value ? "[OK]" : "[MISMATCH]") << "\n";

  // 6. Rewrite with a different value to show in-place update.
  programmer.program(cell, 2, rng);
  std::cout << "rewritten to 2, read    : " << programmer.read_level(cell, rng) << "\n";
  return read_back == value ? 0 : 1;
}
