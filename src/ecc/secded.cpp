#include "ecc/secded.hpp"

#include <algorithm>
#include <array>

namespace oxmlc::ecc {

namespace {

constexpr std::size_t kPayloadBits = 64;
constexpr std::size_t kStoredBits = 72;

// Hamming position of each stored bit (layout in secded.hpp). The syndrome
// of a word is the XOR of the positions of its set bits.
constexpr std::array<unsigned, kStoredBits> kPosition = [] {
  std::array<unsigned, kStoredBits> position{};
  std::size_t k = 0;
  for (unsigned p = 1; k < kPayloadBits; ++p) {
    if ((p & (p - 1)) != 0) position[k++] = p;
  }
  for (unsigned b = 0; b < 7; ++b) position[kPayloadBits + b] = 1u << b;
  position[kStoredBits - 1] = 0;
  return position;
}();

}  // namespace

SecdedCode::SecdedCode() : Code({"secded_72_64", kStoredBits, kPayloadBits, 1, false}) {}

std::vector<std::uint8_t> SecdedCode::encode(std::span<const std::uint8_t> data) const {
  check_length(data.size(), kPayloadBits, "secded encode");
  std::vector<std::uint8_t> word(kStoredBits, 0);
  unsigned syndrome = 0;
  for (std::size_t i = 0; i < kPayloadBits; ++i) {
    word[i] = data[i] != 0;
    if (word[i] != 0) syndrome ^= kPosition[i];
  }
  // The check bit at position 2^b clears bit b of the syndrome; the overall
  // parity then makes the whole 72-bit word even.
  for (std::size_t b = 0; b < 7; ++b) {
    word[kPayloadBits + b] = static_cast<std::uint8_t>((syndrome >> b) & 1u);
  }
  word[kStoredBits - 1] =
      static_cast<std::uint8_t>(std::count(word.begin(), word.end(), 1) % 2);
  return word;
}

Code::Decoded SecdedCode::decode(std::span<const std::uint8_t> word) const {
  check_length(word.size(), kStoredBits, "secded decode");
  Decoded result;
  result.data.assign(kPayloadBits, 0);
  unsigned syndrome = 0;
  bool odd = false;
  for (std::size_t i = 0; i < kStoredBits; ++i) {
    if (word[i] == 0) continue;
    if (i < kPayloadBits) result.data[i] = 1;
    syndrome ^= kPosition[i];
    odd = !odd;
  }
  if (syndrome == 0 && !odd) return result;
  // An even flip count with a nonzero syndrome is a double error. An odd
  // count is read as one error at the position the syndrome names, unless
  // that position is outside the word (flips at 16, 32 and 64 XOR to 112):
  // then it is provably not a single error, and the word is uncorrectable.
  if (!odd || syndrome >= kStoredBits) {
    result.uncorrectable = true;
    return result;
  }
  const auto payload_end = kPosition.begin() + kPayloadBits;
  const auto flipped = std::find(kPosition.begin(), payload_end, syndrome);
  if (flipped != payload_end) result.data[flipped - kPosition.begin()] ^= 1;
  result.corrected_bits = 1;
  return result;
}

}  // namespace oxmlc::ecc
