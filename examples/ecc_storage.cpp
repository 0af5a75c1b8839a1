// ECC-protected QLC storage: the full production stack — Gray-coded levels,
// SECDED(72,64) codewords, QLC cells programmed by the write-termination
// scheme — surviving an injected worst-case analog fault.
//
// The demo stores 64-bit payloads as 18-cell codewords (16 data nibbles + 2
// check nibbles), then deliberately shifts one cell of one read by a level,
// the worst-case single-cell analog fault, and shows SECDED returning the
// exact payload anyway.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "array/fast_array.hpp"
#include "ecc/gray.hpp"
#include "ecc/secded.hpp"
#include "mlc/program.hpp"
#include "util/table.hpp"

namespace {

// The 64 payload bits, least significant first.
std::vector<std::uint8_t> payload_bits(std::uint64_t payload) {
  std::vector<std::uint8_t> bits(64);
  for (std::size_t i = 0; i < 64; ++i) {
    bits[i] = static_cast<std::uint8_t>((payload >> i) & 1u);
  }
  return bits;
}

}  // namespace

int main() {
  using namespace oxmlc;

  std::cout << "SECDED-protected QLC storage (18 cells per 64-bit payload)\n\n";

  const mlc::QlcConfig config = mlc::QlcConfig::paper_default(4, 17);
  const mlc::QlcProgrammer programmer(config);
  const ecc::SecdedCode secded;
  // 16 data nibbles + 2 check nibbles per codeword, Gray-mapped.
  const ecc::LevelCoder coder(4);

  const std::vector<std::uint64_t> payloads = {
      0xDEADBEEFCAFEF00Dull, 0x0123456789ABCDEFull, 0xFFFFFFFF00000000ull};

  array::FastArray memory(payloads.size(), 18, config.nominal_cell, config.variability,
                          config.stack, 0xECC);
  memory.form_all();

  // --- write codewords ---
  for (std::size_t row = 0; row < payloads.size(); ++row) {
    const std::vector<std::size_t> levels =
        coder.levels_for_bits(secded.encode(payload_bits(payloads[row])));
    for (std::size_t col = 0; col < 18; ++col) {
      programmer.program(memory.at(row, col), levels[col], memory.rng_at(row, col));
    }
  }

  // --- read back; on row 1, sabotage the read of one cell ---
  Rng rng(5);
  Table t({"row", "fault injected", "raw payload ok", "ECC status", "payload after ECC"});
  bool all_ok = true;
  for (std::size_t row = 0; row < payloads.size(); ++row) {
    std::vector<std::size_t> levels(18);
    for (std::size_t col = 0; col < 18; ++col) {
      levels[col] = programmer.read_level(memory.at(row, col), rng);
    }
    const bool inject = row == 1;
    if (inject) {
      // Worst-case single-cell analog fault: one level slip.
      levels[7] = levels[7] < 15 ? levels[7] + 1 : levels[7] - 1;
    }
    const std::vector<std::uint8_t> read = coder.bits_for_levels(levels);
    const ecc::Code::Decoded decoded = secded.decode(read);
    const std::vector<std::uint8_t> payload = payload_bits(payloads[row]);
    const bool raw_ok = std::equal(payload.begin(), payload.end(), read.begin());
    const bool final_ok = decoded.data == payload;
    all_ok = all_ok && final_ok;

    const char* status = decoded.uncorrectable          ? "DOUBLE (uncorrectable)"
                         : decoded.corrected_bits > 0 ? "corrected single"
                                                      : "clean";
    t.add_row({std::to_string(row), inject ? "1-level slip in cell 7" : "none",
               raw_ok ? "yes" : "NO", status, final_ok ? "intact" : "CORRUPT"});
  }
  t.print(std::cout);

  std::cout << "\nGray mapping turns a one-level slip into a one-bit flip;\n"
               "SECDED(72,64) repairs it — the layer that converts the QLC\n"
               "array's residual analog error rate into delivered-zero errors.\n";
  return all_ok ? 0 : 1;
}
