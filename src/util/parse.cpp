#include "util/parse.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace oxmlc::util {
namespace {

// The finite number std::strtod reads at the start of `token`; `rest` gets
// what follows. strtod would skip leading whitespace, a token has none.
std::optional<double> leading_real(const std::string& token, std::string& rest) {
  if (token.empty() || std::isspace(static_cast<unsigned char>(token[0]))) return {};
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || !std::isfinite(value)) return {};
  rest = token.substr(static_cast<std::size_t>(end - token.c_str()));
  return value;
}

}  // namespace

std::optional<std::uint64_t> parse_unsigned(const std::string& token) {
  // strtoull would skip whitespace and take a sign, wrapping "-1" to 2^64 - 1.
  if (token.empty() || !std::isdigit(static_cast<unsigned char>(token[0]))) return {};
  errno = 0;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(token.c_str(), &end, 0);
  if (errno == ERANGE || end != token.c_str() + token.size()) return {};
  return value;
}

std::optional<double> parse_real(const std::string& token) {
  std::string rest;
  const std::optional<double> value = leading_real(token, rest);
  return rest.empty() ? value : std::nullopt;
}

std::optional<double> parse_si(const std::string& token, std::string* unit_tail) {
  std::string tail;
  std::optional<double> value = leading_real(token, tail);
  if (!value) return {};
  std::transform(tail.begin(), tail.end(), tail.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  static const std::pair<std::string, double> kScales[] = {
      {"meg", 1e6}, {"t", 1e12}, {"g", 1e9},   {"k", 1e3},   {"m", 1e-3},
      {"u", 1e-6},  {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15}};
  for (const auto& [suffix, scale] : kScales) {
    if (tail.starts_with(suffix)) {
      *value *= scale;
      tail.erase(0, suffix.size());
      break;
    }
  }
  if (!std::isfinite(*value)) return {};
  if (unit_tail != nullptr) *unit_tail = tail;
  return unit_tail != nullptr || known_unit_tail(tail) ? value : std::nullopt;
}

bool known_unit_tail(const std::string& tail) {
  static const char* const kUnits[] = {"",  "ohm", "ohms", "f",   "farad", "h",  "henry",
                                       "v", "a",   "s",    "sec", "hz",    "amp"};
  return std::find(std::begin(kUnits), std::end(kUnits), tail) != std::end(kUnits);
}

}  // namespace oxmlc::util
