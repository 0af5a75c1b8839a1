// Binary BCH codes over GF(2^m): encode, syndromes, Berlekamp–Massey decode.
//
// SECDED stops at one corrected bit per word; a drifting multi-level array
// past the endurance onset produces bursts that need t > 1. Binary primitive
// BCH(n = 2^m - 1, k, t) fills the catalog between SECDED and full product
// codes: the generator polynomial is the LCM of the minimal polynomials of
// alpha^1..alpha^2t, encoding is systematic polynomial division, decoding is
// the textbook chain syndromes -> Berlekamp–Massey error locator -> Chien
// search. The decoder is bounded-distance and *honest about failure*: when
// the error weight exceeds t it either reports `uncorrectable` (locator
// degree > t, or locator roots missing from the field) or — as any
// bounded-distance decoder must occasionally — miscorrects to a nearby
// codeword; it never throws and never claims a correction count above t.
//
// With m = 6 this yields the shipping ladder BCH(63,57,t=1), BCH(63,51,t=2),
// BCH(63,45,t=3) used by the policy explorer: same block length, increasing
// strength, so UBER comparisons across t share the channel realization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ecc/code.hpp"

namespace oxmlc::ecc {

// GF(2^m) arithmetic via log/antilog tables. m must be in 3..10.
class GaloisField {
 public:
  explicit GaloisField(unsigned m);

  unsigned m() const { return m_; }
  unsigned size() const { return n_; }  // 2^m - 1 nonzero elements

  unsigned add(unsigned a, unsigned b) const { return a ^ b; }
  unsigned mul(unsigned a, unsigned b) const;
  unsigned inv(unsigned a) const;        // a != 0
  unsigned alpha_pow(int e) const;       // alpha^e, any integer exponent
  unsigned log(unsigned a) const;        // discrete log base alpha, a != 0

 private:
  unsigned m_ = 0;
  unsigned n_ = 0;
  std::vector<unsigned> alpha_to_;  // alpha_to_[i] = alpha^i, i in [0, n)
  std::vector<unsigned> log_of_;    // log_of_[alpha^i] = i
};

// Binary primitive BCH over GF(2^m), named bch_<n>_<k>_t<t> in the catalog
// and a member of its fixed-block ladder. Bit vectors use one std::uint8_t
// per bit; codeword bit i is the coefficient of x^i, data occupies the high
// positions [n-k, n) (systematic), parity the low positions [0, n-k).
class BchCode final : public Code {
 public:
  BchCode(unsigned m, unsigned t);

  // Encodes k data bits into an n-bit codeword.
  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> data) const override;

  // Decodes a (possibly corrupted) n-bit word.
  Decoded decode(std::span<const std::uint8_t> word) const override;

 private:
  BchCode(GaloisField field, unsigned t);

  GaloisField field_;
  std::vector<std::uint8_t> generator_;  // g(x) coefficients, GF(2), deg = n-k
};

}  // namespace oxmlc::ecc
