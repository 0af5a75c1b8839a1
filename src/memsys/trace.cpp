#include "memsys/trace.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>

#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace oxmlc::memsys {

namespace {

// The synthetic workload's mix: P(request is a write), P(a request starts a
// sequential burst), and the accesses per burst.
constexpr double kWriteFraction = 0.5;
constexpr double kSequentialFraction = 0.7;
constexpr std::size_t kBurstLength = 64;

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw util::ParseError("trace", line_no, message);
}

std::uint64_t parse_u64_token(const std::string& token, const std::string& what,
                              std::size_t line_no) {
  const std::optional<std::uint64_t> parsed = util::parse_unsigned(token);
  if (!parsed) fail(line_no, what + " expects an unsigned integer, got '" + token + "'");
  return *parsed;
}

bool parse_opcode(std::string token, std::size_t line_no) {
  std::transform(token.begin(), token.end(), token.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (token == "R" || token == "READ") return false;
  if (token == "W" || token == "WRITE") return true;
  fail(line_no, "opcode must be R/W/READ/WRITE, got '" + token + "'");
}

}  // namespace

std::vector<TraceRequest> parse_trace(std::istream& stream) {
  std::vector<TraceRequest> trace;
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t last_cycle = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::size_t comment = line.find_first_of(";#");
    if (comment != std::string::npos) line.resize(comment);
    std::istringstream fields(line);
    std::string cycle_token;
    if (!(fields >> cycle_token)) continue;  // blank / comment-only line
    std::string op_token;
    std::string address_token;
    if (!(fields >> op_token >> address_token)) {
      fail(line_no, "expected '<cycle> <R|W> <address> [<data>] [<thread>]'");
    }
    TraceRequest request;
    request.cycle = parse_u64_token(cycle_token, "cycle", line_no);
    request.is_write = parse_opcode(op_token, line_no);
    request.address = parse_u64_token(address_token, "address", line_no);
    std::string data_token;
    if (fields >> data_token) {
      request.data = parse_u64_token(data_token, "data", line_no);
      std::string thread_token;
      if (fields >> thread_token) {
        parse_u64_token(thread_token, "thread id", line_no);  // accepted, ignored
        std::string extra;
        if (fields >> extra) fail(line_no, "unexpected trailing token '" + extra + "'");
      }
    }
    if (request.cycle < last_cycle) {
      fail(line_no, "cycle " + std::to_string(request.cycle) + " decreases below " +
                        std::to_string(last_cycle) + " (trace must be time-sorted)");
    }
    last_cycle = request.cycle;
    trace.push_back(request);
  }
  return trace;
}

std::vector<TraceRequest> parse_trace_text(const std::string& text) {
  std::istringstream stream(text);
  return parse_trace(stream);
}

std::vector<TraceRequest> load_trace(const std::string& path) {
  std::ifstream file(path);
  OXMLC_CHECK(file.good(), "trace: cannot open '" + path + "'");
  return parse_trace(file);
}

std::vector<TraceRequest> synthesize_trace(const GeometryConfig& geometry,
                                           const SyntheticTraceOptions& options) {
  Rng rng(options.seed);
  std::vector<TraceRequest> trace;
  trace.reserve(options.requests);
  const std::uint64_t capacity = geometry.capacity_words();
  const std::uint64_t stride = geometry.bytes_per_access();
  std::uint64_t cycle = 0;
  std::uint64_t burst_word = 0;      // next word of the active sequential burst
  std::size_t burst_remaining = 0;
  bool burst_is_write = false;
  for (std::size_t i = 0; i < options.requests; ++i) {
    TraceRequest request;
    if (burst_remaining == 0 && rng.uniform() < kSequentialFraction) {
      burst_word = rng.uniform_index(capacity);
      burst_remaining = kBurstLength;
      burst_is_write = rng.uniform() < kWriteFraction;
    }
    if (burst_remaining > 0) {
      request.address = (burst_word % capacity) * stride;
      request.is_write = burst_is_write;
      ++burst_word;
      --burst_remaining;
    } else {
      request.address = rng.uniform_index(capacity) * stride;
      request.is_write = rng.uniform() < kWriteFraction;
    }
    if (request.is_write) request.data = rng.next_u64();
    // Geometric-ish inter-arrival: 0 with p=1/2, else uniform in
    // [1, 2*mean_gap]. Keeps the schedulers busy without saturating.
    if (rng.uniform() < 0.5) {
      cycle += 1 + rng.uniform_index(2 * kTraceMeanGapCycles);
    }
    request.cycle = cycle;
    trace.push_back(request);
  }
  return trace;
}

void write_trace(std::ostream& stream, const std::vector<TraceRequest>& trace) {
  for (const TraceRequest& request : trace) {
    stream << request.cycle << (request.is_write ? " W 0x" : " R 0x") << std::hex
           << request.address << std::dec;
    if (request.is_write) {
      stream << " 0x" << std::hex << request.data << std::dec;
    }
    stream << '\n';
  }
}

void save_trace(const std::string& path, const std::vector<TraceRequest>& trace) {
  std::ofstream file(path);
  OXMLC_CHECK(file.good(), "trace: cannot open '" + path + "' for writing");
  write_trace(file, trace);
}

}  // namespace oxmlc::memsys
