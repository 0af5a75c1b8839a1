// Numbers read through util/parse. std::atomic and store() only look like C
// readers, std::stoull in a string must not fire, and the nolint-ed call is
// suppressed.
// expect: clean
#include <atomic>

#include "util/parse.hpp"

double read_value(const char* token, std::atomic<int>& counter) {
  counter.store(1);
  const char* docs = "never std::stoull(token)";
  (void)docs;
  return oxmlc::util::parse_si(token).value_or(0.0) +
         std::strtod(token, nullptr);  // oxmlc-nolint(oxmlc-one-literal-reader)
}
