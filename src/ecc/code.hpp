// Uniform code catalog over bit-vector words.
//
// The policy explorer compares codes of different families at a fixed channel
// realization, so every code — the uncoded baseline, the BCH-t ladder, the
// SECDED word — is a `Code`: one bit-vector encode/decode interface with
// (n, k, t) metadata. Catalog order is the strength ladder: the three
// `same_block` BCH codes share n = 63, which is what makes the UBER chain
// none -> t=1 -> t=2 -> t=3 exactly comparable word by word.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace oxmlc::ecc {

struct CodeSpec {
  std::string name;    // stable report key, e.g. "bch_63_51_t2"
  std::size_t n = 0;   // stored bits per word
  std::size_t k = 0;   // data bits per word
  unsigned t = 0;      // guaranteed correction radius (bits per word)
  // True for the fixed-block ladder sharing n = 63 (the monotone UBER chain).
  bool same_block = false;

  double overhead() const {
    return k == 0 ? 0.0 : static_cast<double>(n - k) / static_cast<double>(k);
  }
};

class Code {
 public:
  virtual ~Code() = default;

  const CodeSpec& spec() const { return spec_; }

  // k data bits -> n stored bits (one std::uint8_t per bit, values 0/1).
  virtual std::vector<std::uint8_t> encode(std::span<const std::uint8_t> data) const = 0;

  struct Decoded {
    std::vector<std::uint8_t> data;  // k bits; the received payload bits on failure
    bool uncorrectable = false;      // decoder *detected* failure
    unsigned corrected_bits = 0;     // bits the decoder flipped
  };
  virtual Decoded decode(std::span<const std::uint8_t> word) const = 0;

 protected:
  explicit Code(CodeSpec spec) : spec_(std::move(spec)) {}

  // Throws unless a `what` input holds `want` bits.
  static void check_length(std::size_t got, std::size_t want, const char* what);

 private:
  CodeSpec spec_;
};

// The explorer's shipping ladder, weakest first:
//   none_63        n=63 k=63 t=0  (uncoded baseline, same_block)
//   bch_63_57_t1   n=63 k=57 t=1  (same_block)
//   bch_63_51_t2   n=63 k=51 t=2  (same_block)
//   bch_63_45_t3   n=63 k=45 t=3  (same_block)
//   secded_72_64   n=72 k=64 t=1  (+ double detect; different block length)
std::vector<std::unique_ptr<Code>> default_catalog();

}  // namespace oxmlc::ecc
