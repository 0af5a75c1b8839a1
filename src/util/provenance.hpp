// Build provenance for machine-readable artifacts.
//
// Every BENCH_*.json the harness emits carries a `provenance` object (git
// SHA, compiler, flags, build type) so the CI perf gate
// (scripts/compare_bench.py) can tell apart a real regression from an
// apples-to-oranges comparison — numbers measured under different flags or
// compilers are flagged, not silently diffed. Values are injected at
// configure time into this one translation unit alone (see
// src/util/CMakeLists.txt), so a SHA change rebuilds a single .o.
#pragma once

#include <string>

namespace oxmlc::util {

// The build's provenance as a JSON object string (no trailing newline):
//   {"git_sha": "...", "compiler": "...", "flags": "...", "build_type": "..."}
// git_sha is HEAD's short SHA ("unknown" outside a checkout). CMake re-reads
// it on the first build after HEAD moves, so it names the commit the binary
// was built from; uncommitted edits in the tree are not marked. compiler is
// id and version ("GNU 12.2.0");
// flags are the CXX flags the build used (base + build type), plus the
// OXMLC_NATIVE marker when that perf configuration is on; build_type is
// CMAKE_BUILD_TYPE.
std::string provenance_json();

}  // namespace oxmlc::util
