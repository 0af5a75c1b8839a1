// The one literal reader: every number read from text (netlists, .mlc and
// .memcfg configs, traces, flags) goes through one of these three grammars.
// Each reads one whole token and returns std::nullopt on anything the token
// cannot mean; the caller reports it (ParseError at a line, usage at a flag).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace oxmlc::util {

// A failure tied to one line of a text input: "<source> line <n>: <message>".
class ParseError : public InvalidArgumentError {
 public:
  ParseError(const std::string& source, std::size_t line, const std::string& message)
      : InvalidArgumentError(source + " line " + std::to_string(line) + ": " + message),
        line_(line) {}

  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

// C integer syntax as std::stoull(token, nullptr, 0) reads it (decimal, 0x hex,
// leading-0 octal), with no sign and at most 2^64 - 1.
std::optional<std::uint64_t> parse_unsigned(const std::string& token);

// A finite double in std::stod grammar. nan, inf, overflow ("1e400") and any
// suffix ("400M") are rejected.
std::optional<double> parse_real(const std::string& token);

// A finite real plus an optional SPICE scale suffix, any case (f p n u m k meg
// g t: "2.5meg", "36uA"). Letters after the suffix must be a known unit word,
// unless `unit_tail` is given: then they come back lower-cased to the caller.
std::optional<double> parse_si(const std::string& token,
                               std::string* unit_tail = nullptr);

// Unit words that may follow a scale suffix ("" "ohm" "f" "s" "a" ...).
bool known_unit_tail(const std::string& tail);

}  // namespace oxmlc::util
