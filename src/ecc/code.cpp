#include "ecc/code.hpp"

#include <string>

#include "ecc/bch.hpp"
#include "ecc/secded.hpp"
#include "util/error.hpp"

namespace oxmlc::ecc {

void Code::check_length(std::size_t got, std::size_t want, const char* what) {
  OXMLC_CHECK(got == want, std::string(what) + ": expected " + std::to_string(want) +
                               " bits, got " + std::to_string(got));
}

namespace {

// Uncoded pass-through: the t=0 anchor of the strength ladder. It cannot
// detect anything, so every channel error lands in the data verbatim.
class NoneCode final : public Code {
 public:
  explicit NoneCode(std::size_t n)
      : Code({"none_" + std::to_string(n), n, n, 0, true}) {}

  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> data) const override {
    check_length(data.size(), spec().k, "none encode");
    return {data.begin(), data.end()};
  }

  Decoded decode(std::span<const std::uint8_t> word) const override {
    check_length(word.size(), spec().n, "none decode");
    return {{word.begin(), word.end()}, false, 0};
  }
};

}  // namespace

std::vector<std::unique_ptr<Code>> default_catalog() {
  std::vector<std::unique_ptr<Code>> catalog;
  catalog.push_back(std::make_unique<NoneCode>(63));
  catalog.push_back(std::make_unique<BchCode>(6, 1));
  catalog.push_back(std::make_unique<BchCode>(6, 2));
  catalog.push_back(std::make_unique<BchCode>(6, 3));
  catalog.push_back(std::make_unique<SecdedCode>());
  return catalog;
}

}  // namespace oxmlc::ecc
