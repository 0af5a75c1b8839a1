// ECC-protected QLC storage: the full production stack — Gray-coded levels,
// SECDED(72,64) codewords, QLC cells programmed by the write-termination
// scheme — surviving an injected worst-case analog fault.
//
// The demo stores 64-bit payloads as 18-cell codewords (16 data nibbles + 2
// check nibbles), then deliberately degrades one read with a huge sense-amp
// offset so a cell decodes one level off, and shows SECDED returning the
// exact payload anyway.
#include <array>
#include <cstdint>
#include <iostream>
#include <vector>

#include "array/fast_array.hpp"
#include "ecc/gray.hpp"
#include "ecc/secded.hpp"
#include "mlc/program.hpp"
#include "util/table.hpp"

namespace {

using namespace oxmlc;

// Levels of one codeword: 16 data nibbles + 2 check nibbles, Gray-mapped.
std::array<std::size_t, 18> codeword_levels(const ecc::SecdedWord& word) {
  std::array<std::size_t, 18> levels{};
  for (unsigned n = 0; n < 16; ++n) {
    levels[n] = static_cast<std::size_t>(
        ecc::gray_decode((word.data >> (4 * n)) & 0xF));
  }
  levels[16] = static_cast<std::size_t>(ecc::gray_decode(word.check & 0xF));
  levels[17] = static_cast<std::size_t>(ecc::gray_decode((word.check >> 4) & 0xF));
  return levels;
}

ecc::SecdedWord codeword_from_levels(const std::array<std::size_t, 18>& levels) {
  ecc::SecdedWord word;
  for (unsigned n = 0; n < 16; ++n) {
    word.data |= ecc::gray_encode(levels[n]) << (4 * n);
  }
  word.check = static_cast<std::uint8_t>(ecc::gray_encode(levels[16]) |
                                         (ecc::gray_encode(levels[17]) << 4));
  return word;
}

}  // namespace

int main() {
  using namespace oxmlc;

  std::cout << "SECDED-protected QLC storage (18 cells per 64-bit payload)\n\n";

  const mlc::QlcConfig config = mlc::QlcConfig::paper_default(4, 17);
  const mlc::QlcProgrammer programmer(config);

  const std::vector<std::uint64_t> payloads = {
      0xDEADBEEFCAFEF00Dull, 0x0123456789ABCDEFull, 0xFFFFFFFF00000000ull};

  array::FastArray memory(payloads.size(), 18, config.nominal_cell, config.variability,
                          config.stack, 0xECC);
  memory.form_all();

  // --- write codewords ---
  for (std::size_t row = 0; row < payloads.size(); ++row) {
    const auto levels = codeword_levels(ecc::secded_encode(payloads[row]));
    for (std::size_t col = 0; col < 18; ++col) {
      programmer.program(memory.at(row, col), levels[col], memory.rng_at(row, col));
    }
  }

  // --- read back; on row 1, sabotage the read of one cell ---
  Rng rng(5);
  Table t({"row", "fault injected", "raw payload ok", "ECC status", "payload after ECC"});
  bool all_ok = true;
  for (std::size_t row = 0; row < payloads.size(); ++row) {
    std::array<std::size_t, 18> levels{};
    for (std::size_t col = 0; col < 18; ++col) {
      levels[col] = programmer.read_level(memory.at(row, col), rng);
    }
    const bool inject = row == 1;
    if (inject) {
      // Worst-case single-cell analog fault: one level slip.
      levels[7] = levels[7] < 15 ? levels[7] + 1 : levels[7] - 1;
    }
    const ecc::SecdedWord read = codeword_from_levels(levels);
    const ecc::EccDecodeResult decoded = ecc::secded_decode(read);
    const bool raw_ok = read.data == ecc::secded_encode(payloads[row]).data;
    const bool final_ok = decoded.data == payloads[row];
    all_ok = all_ok && final_ok;

    const char* status =
        decoded.status == ecc::EccStatus::kClean
            ? "clean"
            : decoded.status == ecc::EccStatus::kCorrectedSingle ? "corrected single"
                                                                 : "DOUBLE (uncorrectable)";
    t.add_row({std::to_string(row), inject ? "1-level slip in cell 7" : "none",
               raw_ok ? "yes" : "NO", status, final_ok ? "intact" : "CORRUPT"});
  }
  t.print(std::cout);

  std::cout << "\nGray mapping turns a one-level slip into a one-bit flip;\n"
               "SECDED(72,64) repairs it — the layer that converts the QLC\n"
               "array's residual analog error rate into delivered-zero errors.\n";
  return all_ok ? 0 : 1;
}
