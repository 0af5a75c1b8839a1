// Memory-system geometry: the bank/rank/channel organization above the
// device physics, modeled on NVMain's RRAM_ISSCC_2012_4GB.config (8192 rows
// x 512 columns x 4 banks x 4 channels, timing in memory cycles).
//
// The paper's density pitch (RESET write termination enabling 4+ bits/cell)
// is a system-level claim: what matters to a product is sustained write
// throughput and tail latency of the *organized* memory, with scrub and
// wear-leveling running underneath. This header defines that organization:
//
//   * GeometryConfig — channels x banks x rows x device words per row, plus
//     the per-command timing parameters in memory cycles (TimingParams) and
//     the maintenance policy knobs (scrub interval, start-gap rotation);
//   * a `.memcfg` dialect (`KEY value` lines, `;`/`#` comments — the NVMain
//     config idiom) with parse/load entry points;
//   * the address mapper: byte address -> (channel, bank, row, col) with
//     channel bits interleaved lowest so sequential streams stripe across
//     channels first, then banks — the mapping NVMain calls RV:BK:CH.
//
// A "device word" is one parallel word access of the paper's §4.2 flow:
// cells_per_word bit lines, each carrying bits_per_cell bits, programmed by
// one shared-SL RESET with per-bit-line termination. All system addresses
// resolve to device words; bytes_per_access() is the payload of one access.
#pragma once

#include <cstdint>
#include <string>

namespace oxmlc::memsys {

// Per-command timing in memory cycles at `clk_mhz`. Values follow the NVMain
// RRAM ISSCC-2012 config scaled to the paper's operating point: reads are
// tens of ns, terminated RESET writes are µs-class and level-dependent (the
// deepest Table 2 level terminates at ~4 µs — t_wp_max at 400 MHz).
struct TimingParams {
  double clk_mhz = 400.0;
  std::uint64_t t_rcd = 22;     // activate: row decode + WL charge
  std::uint64_t t_cas = 10;     // column access (read)
  std::uint64_t t_burst = 4;    // data burst occupancy on the channel bus
  std::uint64_t t_rp = 12;      // precharge / row close
  std::uint64_t t_wp_min = 220;   // write pulse, shallowest level (~0.55 µs)
  std::uint64_t t_wp_max = 1620;  // write pulse, deepest level (~4 µs)
  std::uint64_t t_scrub = 440;  // one maintenance (scrub) slot

  double cycle_s() const { return 1e-6 / clk_mhz; }
};

// Per-bank arbitration among queued requests (CommandScheduler):
//   kFcfs       strict arrival order, row locality ignored;
//   kFrFcfs     oldest open-row hit first, else oldest (the classic default);
//   kWriteDrain FR-FCFS, but once queued writes reach write_drain_threshold
//               the bank drains writes (FR among them) until none remain —
//               the standard answer to µs-class RRAM write pulses starving
//               behind a read stream.
enum class SchedulerPolicy { kFcfs, kFrFcfs, kWriteDrain };

// Stable lowercase names ("fcfs", "fr_fcfs", "write_drain") for reports.
const char* scheduler_policy_name(SchedulerPolicy policy);
// Parses the .memcfg spelling (case-sensitive: FCFS, FR_FCFS, WRITE_DRAIN).
// Throws InvalidArgumentError on anything else.
SchedulerPolicy parse_scheduler_policy(const std::string& name);

struct GeometryConfig {
  std::size_t channels = 4;
  std::size_t banks_per_channel = 4;
  std::size_t rows_per_bank = 8192;
  std::size_t words_per_row = 512;   // device words per row (column positions)
  std::size_t cells_per_word = 8;    // bit lines per parallel word access
  std::size_t bits_per_cell = 4;     // QLC by default (Table 2); up to 6
  TimingParams timing;
  std::size_t queue_depth = 32;      // per-bank request queue capacity
  SchedulerPolicy scheduler_policy = SchedulerPolicy::kFrFcfs;
  std::size_t write_drain_threshold = 16;  // queued writes that trigger a drain
  // Maintenance policy. scrub_interval_cycles = 0 disables scrub injection;
  // rotate_every_writes = 0 disables start-gap wear leveling.
  std::uint64_t scrub_interval_cycles = 2'000'000;
  std::uint64_t rotate_every_writes = 50'000;

  std::size_t total_banks() const { return channels * banks_per_channel; }
  // Payload bytes of one device-word access (rounded down; 8 QLC cells = 4).
  std::size_t bytes_per_access() const { return cells_per_word * bits_per_cell / 8; }
  std::size_t capacity_words() const {
    return total_banks() * rows_per_bank * words_per_row;
  }
  std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(capacity_words()) * bytes_per_access();
  }

  // Throws InvalidArgumentError naming the offending field on a non-physical
  // configuration (zero dims, a word wider than the 64-bit trace payload or
  // byte-fractional access, degenerate timing, a scrub interval no longer
  // than one scrub slot).
  void validate() const;

  // The NVMain RRAM_ISSCC_2012_4GB shape: 4 channels x 4 banks x 8192 rows
  // x 512 device words, QLC cells, default timing.
  static GeometryConfig rram_isscc_2012();
};

// One decoded device-word address.
struct DecodedAddress {
  std::size_t channel = 0;
  std::size_t bank = 0;  // bank within the channel
  std::size_t row = 0;
  std::size_t col = 0;   // device word within the row

  bool operator==(const DecodedAddress&) const = default;
};

// Byte address -> (channel, bank, row, col). Channel bits lowest, then bank,
// then column, then row; addresses beyond capacity wrap (traces captured on a
// larger system replay onto this geometry instead of erroring out).
DecodedAddress decode_address(const GeometryConfig& geometry, std::uint64_t address);

// Inverse of decode_address (used by tests and the synthetic trace writer).
std::uint64_t encode_address(const GeometryConfig& geometry, const DecodedAddress& decoded);

// Level index that cell `cell` of a device word takes from a write payload:
// the cell's bits_per_cell-wide field, counted from the low bits of `data`.
// validate() keeps every field inside the 64-bit payload. Allocates nothing;
// the scheduler decodes every write through it.
std::size_t payload_level(const GeometryConfig& geometry, std::uint64_t data,
                          std::size_t cell);

// `.memcfg` parsing: `KEY value` per line (NVMain idiom), `;` or `#`
// comments, a bad key or value throws util::ParseError at its line. Keys are
// the field names above (CHANNELS, BANKS, ROWS, WORDS_PER_ROW, CELLS_PER_WORD,
// BITS_PER_CELL, CLK_MHZ, tRCD, tCAS, tBURST, tRP, tWP_MIN, tWP_MAX, tSCRUB,
// QUEUE_DEPTH, SCHED_POLICY, WRITE_DRAIN_THRESHOLD, SCRUB_INTERVAL,
// ROTATE_EVERY_WRITES); unspecified keys keep the rram_isscc_2012 defaults.
// Integer keys take util::parse_unsigned (no sign, fraction or exponent),
// CLK_MHZ a finite util::parse_real ("400", not "400M"), SCHED_POLICY FCFS |
// FR_FCFS | WRITE_DRAIN. The parsed config is validate()d.
GeometryConfig parse_memsys_config(const std::string& text);
GeometryConfig load_memsys_config(const std::string& path);

}  // namespace oxmlc::memsys
