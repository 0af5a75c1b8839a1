// Trace front-end: gem5/NVMain-style timed request streams.
//
// Text format, one request per line:
//
//     <cycle> <R|W> <address> [<data>] [<thread>]
//
//   * cycle   — arrival time in memory cycles, non-decreasing;
//   * R|W     — read or write (also accepts READ/WRITE, case-insensitive);
//   * address — byte address;
//   * data    — optional payload; writes use it to derive per-cell MLC
//               levels, reads ignore it;
//   * thread  — optional originator id, accepted and ignored (gem5 emits it).
//
// Numeric fields are util::parse_unsigned: decimal, 0x hex or leading-0 octal,
// no sign ("-5" is an error, not 2^64 - 5). `#` and `;` start comments. Parse
// errors are util::ParseError with the 1-based line number.
//
// `synthesize_trace` builds the deterministic workload used by the acceptance
// run and the bench: a mix of sequential bursts (striding across channels)
// and uniform-random single accesses, with a configurable write fraction.
// Everything derives from oxmlc::Rng(seed), so the same seed always yields
// the same byte-identical trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "memsys/geometry.hpp"

namespace oxmlc::memsys {

struct TraceRequest {
  std::uint64_t cycle = 0;    // arrival time in memory cycles
  bool is_write = false;
  std::uint64_t address = 0;  // byte address
  std::uint64_t data = 0;     // write payload (level source); 0 for reads

  bool operator==(const TraceRequest&) const = default;
};

// Parse a whole trace; throws util::ParseError at the line of malformed input
// (bad opcode, bad numeric field, decreasing cycles).
std::vector<TraceRequest> parse_trace(std::istream& stream);
std::vector<TraceRequest> parse_trace_text(const std::string& text);
std::vector<TraceRequest> load_trace(const std::string& path);

// Mean inter-arrival gap of the synthetic workload, in memory cycles.
inline constexpr std::uint64_t kTraceMeanGapCycles = 8;

struct SyntheticTraceOptions {
  std::size_t requests = 1'000'000;
  std::uint64_t seed = 0x7261CEull;
};

// Deterministic synthetic workload for the given geometry (addresses are
// in-capacity and word-aligned): half writes, 70 % of requests in 64-access
// sequential bursts, kTraceMeanGapCycles apart on average. Same options ->
// identical trace.
std::vector<TraceRequest> synthesize_trace(const GeometryConfig& geometry,
                                           const SyntheticTraceOptions& options);

// Write requests in the text format above (round-trips through parse_trace).
void write_trace(std::ostream& stream, const std::vector<TraceRequest>& trace);
void save_trace(const std::string& path, const std::vector<TraceRequest>& trace);

}  // namespace oxmlc::memsys
