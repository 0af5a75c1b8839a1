#include "memsys/geometry.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace oxmlc::memsys {

const char* scheduler_policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFcfs:
      return "fcfs";
    case SchedulerPolicy::kFrFcfs:
      return "fr_fcfs";
    case SchedulerPolicy::kWriteDrain:
      return "write_drain";
  }
  throw InternalError("scheduler_policy_name: unhandled policy");
}

SchedulerPolicy parse_scheduler_policy(const std::string& name) {
  if (name == "FCFS") return SchedulerPolicy::kFcfs;
  if (name == "FR_FCFS") return SchedulerPolicy::kFrFcfs;
  if (name == "WRITE_DRAIN") return SchedulerPolicy::kWriteDrain;
  throw InvalidArgumentError("SCHED_POLICY expects FCFS, FR_FCFS or WRITE_DRAIN, got '" +
                             name + "'");
}

namespace {

// The first rule a geometry breaks: what it says, and the .memcfg keys whose
// values it reads.
struct GeometryViolation {
  std::string message;
  std::vector<const char*> keys;
};

std::optional<GeometryViolation> first_violation(const GeometryConfig& g) {
  const TimingParams& t = g.timing;
  const auto word = [&] {
    return " (" + std::to_string(g.cells_per_word) + " x " +
           std::to_string(g.bits_per_cell) + ")";
  };
  if (g.channels == 0) return {{"CHANNELS must be positive", {"CHANNELS"}}};
  if (g.banks_per_channel == 0) return {{"BANKS must be positive", {"BANKS"}}};
  if (g.rows_per_bank == 0) return {{"ROWS must be positive", {"ROWS"}}};
  if (g.words_per_row == 0) return {{"WORDS_PER_ROW must be positive", {"WORDS_PER_ROW"}}};
  if (g.cells_per_word == 0) {
    return {{"CELLS_PER_WORD must be positive", {"CELLS_PER_WORD"}}};
  }
  if (g.bits_per_cell < 1 || g.bits_per_cell > 6) {
    return {{"BITS_PER_CELL must be in [1, 6], got " + std::to_string(g.bits_per_cell),
             {"BITS_PER_CELL"}}};
  }
  if (g.cells_per_word > 64 / g.bits_per_cell) {
    return {{"CELLS_PER_WORD x BITS_PER_CELL" + word() + " must fit the 64-bit trace payload",
             {"CELLS_PER_WORD", "BITS_PER_CELL"}}};
  }
  if (g.cells_per_word * g.bits_per_cell % 8 != 0) {
    return {{"CELLS_PER_WORD x BITS_PER_CELL" + word() + " must be a whole number of bytes",
             {"CELLS_PER_WORD", "BITS_PER_CELL"}}};
  }
  if (!(t.clk_mhz > 0.0)) return {{"CLK_MHZ must be positive", {"CLK_MHZ"}}};
  if (t.t_rcd == 0 || t.t_cas == 0 || t.t_burst == 0 || t.t_rp == 0) {
    return {{"tRCD/tCAS/tBURST/tRP must all be positive", {"tRCD", "tCAS", "tBURST", "tRP"}}};
  }
  if (t.t_wp_min == 0 || t.t_wp_max < t.t_wp_min) {
    return {{"write pulse window requires 0 < tWP_MIN <= tWP_MAX, got [" +
                 std::to_string(t.t_wp_min) + ", " + std::to_string(t.t_wp_max) + "]",
             {"tWP_MIN", "tWP_MAX"}}};
  }
  if (t.t_scrub == 0) return {{"tSCRUB must be positive", {"tSCRUB"}}};
  // A scrub due again by the time its slot ends takes every freed bank ahead
  // of the queue, so no request would ever retire.
  if (g.scrub_interval_cycles != 0 && g.scrub_interval_cycles <= t.t_scrub) {
    return {{"SCRUB_INTERVAL must be 0 or exceed tSCRUB, got " +
                 std::to_string(g.scrub_interval_cycles) + " <= " + std::to_string(t.t_scrub),
             {"SCRUB_INTERVAL", "tSCRUB"}}};
  }
  if (g.queue_depth == 0) return {{"QUEUE_DEPTH must be positive", {"QUEUE_DEPTH"}}};
  if (g.scheduler_policy == SchedulerPolicy::kWriteDrain && g.write_drain_threshold == 0) {
    return {{"WRITE_DRAIN_THRESHOLD must be positive under SCHED_POLICY WRITE_DRAIN",
             {"SCHED_POLICY", "WRITE_DRAIN_THRESHOLD"}}};
  }
  return std::nullopt;
}

}  // namespace

void GeometryConfig::validate() const {
  if (const std::optional<GeometryViolation> violation = first_violation(*this)) {
    throw InvalidArgumentError("memsys geometry: " + violation->message);
  }
}

GeometryConfig GeometryConfig::rram_isscc_2012() {
  GeometryConfig config;  // defaults ARE the ISSCC-2012 shape
  config.validate();
  return config;
}

DecodedAddress decode_address(const GeometryConfig& geometry, std::uint64_t address) {
  const std::size_t bytes = geometry.bytes_per_access();
  std::uint64_t word = (address / bytes) % geometry.capacity_words();
  DecodedAddress decoded;
  decoded.channel = static_cast<std::size_t>(word % geometry.channels);
  word /= geometry.channels;
  decoded.bank = static_cast<std::size_t>(word % geometry.banks_per_channel);
  word /= geometry.banks_per_channel;
  decoded.col = static_cast<std::size_t>(word % geometry.words_per_row);
  word /= geometry.words_per_row;
  decoded.row = static_cast<std::size_t>(word % geometry.rows_per_bank);
  return decoded;
}

std::uint64_t encode_address(const GeometryConfig& geometry, const DecodedAddress& decoded) {
  OXMLC_CHECK(decoded.channel < geometry.channels && decoded.bank < geometry.banks_per_channel &&
                  decoded.row < geometry.rows_per_bank && decoded.col < geometry.words_per_row,
              "memsys encode_address: decoded address (" + std::to_string(decoded.channel) +
                  ", " + std::to_string(decoded.bank) + ", " + std::to_string(decoded.row) +
                  ", " + std::to_string(decoded.col) + ") out of range for " +
                  std::to_string(geometry.channels) + "x" +
                  std::to_string(geometry.banks_per_channel) + "x" +
                  std::to_string(geometry.rows_per_bank) + "x" +
                  std::to_string(geometry.words_per_row) + " geometry");
  std::uint64_t word = decoded.row;
  word = word * geometry.words_per_row + decoded.col;
  word = word * geometry.banks_per_channel + decoded.bank;
  word = word * geometry.channels + decoded.channel;
  return word * geometry.bytes_per_access();
}

std::size_t payload_level(const GeometryConfig& geometry, std::uint64_t data,
                          std::size_t cell) {
  const std::uint64_t mask = (std::uint64_t{1} << geometry.bits_per_cell) - 1;
  return static_cast<std::size_t>((data >> (cell * geometry.bits_per_cell)) & mask);
}

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw util::ParseError("memsys config", line_no, message);
}

std::uint64_t parse_u64_field(const std::string& key, const std::string& value,
                              std::size_t line_no) {
  const std::optional<std::uint64_t> parsed = util::parse_unsigned(value);
  if (!parsed) fail(line_no, key + " expects an unsigned integer, got '" + value + "'");
  return *parsed;
}

}  // namespace

GeometryConfig parse_memsys_config(const std::string& text) {
  GeometryConfig config = GeometryConfig::rram_isscc_2012();
  std::map<std::string, std::size_t> key_lines;  // COLS is WORDS_PER_ROW
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::size_t comment = line.find_first_of(";#");
    if (comment != std::string::npos) line.resize(comment);
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;  // blank / comment-only line
    std::string value;
    if (!(fields >> value)) fail(line_no, "key '" + key + "' is missing a value");
    std::string extra;
    if (fields >> extra) fail(line_no, "unexpected trailing token '" + extra + "'");
    const auto [seen, first] = key_lines.emplace(key == "COLS" ? "WORDS_PER_ROW" : key, line_no);
    if (!first) {
      fail(line_no, "key '" + key + "' already set on line " + std::to_string(seen->second));
    }
    if (key == "CHANNELS") {
      config.channels = parse_u64_field(key, value, line_no);
    } else if (key == "BANKS") {
      config.banks_per_channel = parse_u64_field(key, value, line_no);
    } else if (key == "ROWS") {
      config.rows_per_bank = parse_u64_field(key, value, line_no);
    } else if (key == "WORDS_PER_ROW" || key == "COLS") {
      config.words_per_row = parse_u64_field(key, value, line_no);
    } else if (key == "CELLS_PER_WORD") {
      config.cells_per_word = parse_u64_field(key, value, line_no);
    } else if (key == "BITS_PER_CELL") {
      config.bits_per_cell = parse_u64_field(key, value, line_no);
    } else if (key == "CLK_MHZ") {
      const std::optional<double> mhz = util::parse_real(value);
      if (!mhz) fail(line_no, key + " expects a finite number, got '" + value + "'");
      config.timing.clk_mhz = *mhz;
    } else if (key == "tRCD") {
      config.timing.t_rcd = parse_u64_field(key, value, line_no);
    } else if (key == "tCAS") {
      config.timing.t_cas = parse_u64_field(key, value, line_no);
    } else if (key == "tBURST") {
      config.timing.t_burst = parse_u64_field(key, value, line_no);
    } else if (key == "tRP") {
      config.timing.t_rp = parse_u64_field(key, value, line_no);
    } else if (key == "tWP_MIN") {
      config.timing.t_wp_min = parse_u64_field(key, value, line_no);
    } else if (key == "tWP_MAX") {
      config.timing.t_wp_max = parse_u64_field(key, value, line_no);
    } else if (key == "tSCRUB") {
      config.timing.t_scrub = parse_u64_field(key, value, line_no);
    } else if (key == "QUEUE_DEPTH") {
      config.queue_depth = parse_u64_field(key, value, line_no);
    } else if (key == "SCHED_POLICY") {
      try {
        config.scheduler_policy = parse_scheduler_policy(value);
      } catch (const InvalidArgumentError& e) {
        fail(line_no, e.what());
      }
    } else if (key == "WRITE_DRAIN_THRESHOLD") {
      config.write_drain_threshold = parse_u64_field(key, value, line_no);
    } else if (key == "SCRUB_INTERVAL") {
      config.scrub_interval_cycles = parse_u64_field(key, value, line_no);
    } else if (key == "ROTATE_EVERY_WRITES") {
      config.rotate_every_writes = parse_u64_field(key, value, line_no);
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  // A broken rule is reported at the line of the last key it reads; the
  // defaults break none, so at least one of its keys was set here.
  if (const std::optional<GeometryViolation> violation = first_violation(config)) {
    std::size_t at = 0;
    for (const char* key : violation->keys) {
      if (const auto it = key_lines.find(key); it != key_lines.end()) {
        at = std::max(at, it->second);
      }
    }
    fail(at, violation->message);
  }
  return config;
}

GeometryConfig load_memsys_config(const std::string& path) {
  std::ifstream file(path);
  OXMLC_CHECK(file.good(), "memsys config: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_memsys_config(buffer.str());
}

}  // namespace oxmlc::memsys
