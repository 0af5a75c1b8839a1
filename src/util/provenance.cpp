#include "util/provenance.hpp"

#include "provenance_sha.hpp"

namespace oxmlc::util {
namespace {

#ifndef OXMLC_BUILD_COMPILER
#define OXMLC_BUILD_COMPILER "unknown"
#endif
#ifndef OXMLC_BUILD_FLAGS
#define OXMLC_BUILD_FLAGS ""
#endif
#ifndef OXMLC_BUILD_TYPE
#define OXMLC_BUILD_TYPE ""
#endif

// Flags come straight out of CMake variables; escape the characters that can
// legally appear there (quotes in -D definitions, backslashes on exotic
// toolchains) so the emitted JSON stays parseable.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string provenance_json() {
  return "{\"git_sha\": \"" + json_escape(OXMLC_BUILD_GIT_SHA) + "\", \"compiler\": \"" +
         json_escape(OXMLC_BUILD_COMPILER) + "\", \"flags\": \"" +
         json_escape(OXMLC_BUILD_FLAGS) + "\", \"build_type\": \"" +
         json_escape(OXMLC_BUILD_TYPE) + "\"}";
}

}  // namespace oxmlc::util
