#include "ecc/bch.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "util/error.hpp"

namespace oxmlc::ecc {

namespace {

// Primitive polynomials over GF(2), one per field degree m = 3..10, in the
// usual bit encoding (bit i = coefficient of x^i). These are the standard
// minimum-weight choices (x^6 + x + 1 for m = 6, etc.).
constexpr unsigned kPrimitivePoly[] = {
    0x0B,   // m=3:  x^3 + x + 1
    0x13,   // m=4:  x^4 + x + 1
    0x25,   // m=5:  x^5 + x^2 + 1
    0x43,   // m=6:  x^6 + x + 1
    0x89,   // m=7:  x^7 + x^3 + 1
    0x11D,  // m=8:  x^8 + x^4 + x^3 + x^2 + 1
    0x211,  // m=9:  x^9 + x^4 + 1
    0x409,  // m=10: x^10 + x^3 + 1
};

// The exponents j of the generator's roots alpha^j: the union of the
// cyclotomic cosets of 1..2t, i.e. the roots of the LCM of the minimal
// polynomials of alpha^1..alpha^2t. Each conjugate appears once, so the
// generator has one linear factor per exponent and degree n - k.
std::set<unsigned> root_exponents(unsigned n, unsigned t) {
  std::set<unsigned> exponents;
  for (unsigned i = 1; i <= 2 * t; ++i) {
    unsigned j = i % n;
    while (exponents.insert(j).second) {
      j = (2 * j) % n;
    }
  }
  return exponents;
}

CodeSpec bch_spec(const GaloisField& field, unsigned t) {
  OXMLC_CHECK(t >= 1, "BchCode: t must be >= 1");
  const unsigned n = field.size();
  const std::size_t parity = root_exponents(n, t).size();
  OXMLC_CHECK(parity < n, "BchCode: t=" + std::to_string(t) +
                              " leaves no data bits at m=" + std::to_string(field.m()));
  const std::size_t k = n - parity;
  return {"bch_" + std::to_string(n) + "_" + std::to_string(k) + "_t" + std::to_string(t),
          n, k, t, true};
}

}  // namespace

GaloisField::GaloisField(unsigned m) : m_(m), n_((1u << m) - 1) {
  OXMLC_CHECK(m >= 3 && m <= 10,
              "GaloisField: m must be in [3, 10], got " + std::to_string(m));
  const unsigned poly = kPrimitivePoly[m - 3];
  alpha_to_.assign(n_, 0);
  log_of_.assign(n_ + 1, 0);
  unsigned x = 1;
  for (unsigned i = 0; i < n_; ++i) {
    alpha_to_[i] = x;
    log_of_[x] = i;
    x <<= 1;
    if (x > n_) x ^= poly;
  }
}

unsigned GaloisField::mul(unsigned a, unsigned b) const {
  if (a == 0 || b == 0) return 0;
  return alpha_to_[(log_of_[a] + log_of_[b]) % n_];
}

unsigned GaloisField::inv(unsigned a) const {
  OXMLC_CHECK(a != 0, "GaloisField: zero has no inverse");
  return alpha_to_[(n_ - log_of_[a]) % n_];
}

unsigned GaloisField::alpha_pow(int e) const {
  const int n = static_cast<int>(n_);
  int r = e % n;
  if (r < 0) r += n;
  return alpha_to_[static_cast<unsigned>(r)];
}

unsigned GaloisField::log(unsigned a) const {
  OXMLC_CHECK(a != 0, "GaloisField: log of zero");
  return log_of_[a];
}

BchCode::BchCode(unsigned m, unsigned t) : BchCode(GaloisField(m), t) {}

BchCode::BchCode(GaloisField field, unsigned t)
    : Code(bch_spec(field, t)), field_(std::move(field)) {
  // Multiply the linear factors (x - alpha^j) out in GF(2^m); the result has
  // GF(2) coefficients because the root set is closed under conjugation.
  std::vector<unsigned> g = {1};
  for (const unsigned j : root_exponents(field_.size(), t)) {
    const unsigned root = field_.alpha_pow(static_cast<int>(j));
    std::vector<unsigned> next(g.size() + 1, 0);
    for (std::size_t i = 0; i < g.size(); ++i) {
      next[i + 1] ^= g[i];                  // x * g[i]
      next[i] ^= field_.mul(g[i], root);    // root * g[i] (add == xor)
    }
    g = std::move(next);
  }
  generator_.resize(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    OXMLC_CHECK(g[i] <= 1, "BchCode: generator coefficient escaped GF(2)");
    generator_[i] = static_cast<std::uint8_t>(g[i]);
  }
}

std::vector<std::uint8_t> BchCode::encode(std::span<const std::uint8_t> data) const {
  const std::size_t n = spec().n, k = spec().k;
  check_length(data.size(), k, "bch encode");
  const std::size_t parity = n - k;
  std::vector<std::uint8_t> codeword(n, 0);
  for (std::size_t i = 0; i < k; ++i) {
    codeword[parity + i] = data[i] != 0;
  }
  // Systematic encode: parity = x^(n-k) d(x) mod g(x), via long division with
  // the data already placed in the high coefficients.
  std::vector<std::uint8_t> rem(codeword);
  for (std::size_t i = n; i-- > parity;) {
    if (rem[i] == 0) continue;
    const std::size_t shift = i - (generator_.size() - 1);
    for (std::size_t j = 0; j < generator_.size(); ++j) {
      rem[shift + j] ^= generator_[j];
    }
  }
  for (std::size_t i = 0; i < parity; ++i) {
    codeword[i] = rem[i];
  }
  return codeword;
}

Code::Decoded BchCode::decode(std::span<const std::uint8_t> word) const {
  const std::size_t n = spec().n;
  const std::size_t parity = n - spec().k;
  const unsigned t = spec().t;
  check_length(word.size(), n, "bch decode");
  // The received payload bits, until a correction lands.
  Decoded result{{word.begin() + static_cast<std::ptrdiff_t>(parity), word.end()}};

  // Syndromes S_i = r(alpha^i), i = 1..2t.
  std::vector<unsigned> syndrome(2 * t + 1, 0);
  bool clean = true;
  for (unsigned i = 1; i <= 2 * t; ++i) {
    unsigned s = 0;
    for (std::size_t p = 0; p < n; ++p) {
      if (word[p] != 0) s ^= field_.alpha_pow(static_cast<int>(i * p));
    }
    syndrome[i] = s;
    clean = clean && s == 0;
  }
  if (clean) return result;

  // Berlekamp–Massey: shortest LFSR C(x) generating the syndrome sequence is
  // the error-locator sigma(x).
  std::vector<unsigned> C = {1}, B = {1};
  unsigned L = 0, b = 1, shift = 1;
  for (unsigned step = 0; step < 2 * t; ++step) {
    unsigned d = syndrome[step + 1];
    for (unsigned i = 1; i <= L && i < C.size(); ++i) {
      d ^= field_.mul(C[i], syndrome[step + 1 - i]);
    }
    if (d == 0) {
      ++shift;
    } else if (2 * L <= step) {
      const std::vector<unsigned> T = C;
      const unsigned coef = field_.mul(d, field_.inv(b));
      C.resize(std::max(C.size(), B.size() + shift), 0);
      for (std::size_t i = 0; i < B.size(); ++i) {
        C[i + shift] ^= field_.mul(coef, B[i]);
      }
      L = step + 1 - L;
      B = T;
      b = d;
      shift = 1;
    } else {
      const unsigned coef = field_.mul(d, field_.inv(b));
      C.resize(std::max(C.size(), B.size() + shift), 0);
      for (std::size_t i = 0; i < B.size(); ++i) {
        C[i + shift] ^= field_.mul(coef, B[i]);
      }
      ++shift;
    }
  }
  while (C.size() > 1 && C.back() == 0) C.pop_back();
  const unsigned degree = static_cast<unsigned>(C.size() - 1);
  if (L > t || degree != L) {
    // More errors than the code can locate: bounded-distance failure.
    result.uncorrectable = true;
    return result;
  }

  // Chien search: error at position p iff sigma(alpha^{-p}) == 0.
  std::vector<std::size_t> positions;
  for (std::size_t p = 0; p < n && positions.size() <= L; ++p) {
    unsigned value = 0;
    for (std::size_t i = 0; i < C.size(); ++i) {
      if (C[i] == 0) continue;
      value ^= field_.mul(C[i],
                          field_.alpha_pow(-static_cast<int>(i * p)));
    }
    if (value == 0) positions.push_back(p);
  }
  if (positions.size() != L) {
    // The locator does not split over the field: error weight exceeded t.
    result.uncorrectable = true;
    return result;
  }
  for (const std::size_t p : positions) {
    if (p >= parity) result.data[p - parity] ^= 1u;
  }
  result.corrected_bits = static_cast<unsigned>(positions.size());
  return result;
}

}  // namespace oxmlc::ecc
