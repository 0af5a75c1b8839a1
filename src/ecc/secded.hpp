// Hamming(72,64) + overall parity SECDED.
//
// The classic memory-controller code: 64 payload bits -> 72 stored bits,
// correcting any single-bit error and detecting any double-bit error per
// word. With Gray-coded 4-bit cells (see ecc/gray.hpp) a 72-bit codeword
// occupies 18 cells and a one-level decode slip flips exactly one stored
// bit, which SECDED then corrects. It lives here, beside the code catalog,
// the injection bridge and the policy explorer, in one rank-ordered module.
#pragma once

#include "ecc/code.hpp"

namespace oxmlc::ecc {

// SECDED(72,64) on bit vectors. Stored bits 0-63 hold the payload, bits
// 64-70 the Hamming check bits at positions 1, 2, 4, ..., 64, and bit 71 the
// overall parity (position 0); the payload fills positions 3..71 that are
// not powers of two, in order. A read word decodes to one of three
// verdicts: clean, one bit corrected (an odd flip count whose syndrome names
// a position), or uncorrectable (an even count with a nonzero syndrome, or
// an odd count whose syndrome names no position of the 72-bit word).
class SecdedCode final : public Code {
 public:
  SecdedCode();

  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> data) const override;
  Decoded decode(std::span<const std::uint8_t> word) const override;
};

}  // namespace oxmlc::ecc
