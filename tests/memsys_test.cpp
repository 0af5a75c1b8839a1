// Memory-system tier suite: geometry/address mapping, the .memcfg dialect,
// the trace front-end, exact FR-FCFS service-time accounting, and the replay
// report — including the 1/2/8-thread bit-identity contract on to_json().
//
// The scheduler tests use hand-built traces small enough to compute the
// expected completion cycles by hand from TimingParams, so a regression in
// the open-row / bus-serialization arithmetic fails with the exact numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "memsys/fidelity.hpp"
#include "memsys/geometry.hpp"
#include "memsys/replay.hpp"
#include "memsys/scheduler.hpp"
#include "memsys/trace.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/schema.hpp"
#include "util/stats.hpp"

namespace oxmlc::memsys {
namespace {

// ---------------------------------------------------------------------------
// Geometry and address mapping
// ---------------------------------------------------------------------------

TEST(Geometry, RramIsscc2012Shape) {
  const GeometryConfig g = GeometryConfig::rram_isscc_2012();
  EXPECT_EQ(g.channels, 4u);
  EXPECT_EQ(g.banks_per_channel, 4u);
  EXPECT_EQ(g.rows_per_bank, 8192u);
  EXPECT_EQ(g.words_per_row, 512u);
  EXPECT_EQ(g.total_banks(), 16u);
  EXPECT_EQ(g.bytes_per_access(), 4u);  // 8 QLC cells = 32 bits
  EXPECT_EQ(g.capacity_words(), 16u * 8192u * 512u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Geometry, ValidateNamesTheOffendingField) {
  GeometryConfig g = GeometryConfig::rram_isscc_2012();
  g.channels = 0;
  try {
    g.validate();
    FAIL() << "zero channels accepted";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("CHANNELS must be positive"), std::string::npos)
        << e.what();
  }

  GeometryConfig fractional = GeometryConfig::rram_isscc_2012();
  fractional.cells_per_word = 3;  // 3 * 4 bits = 12 bits: not a whole byte
  EXPECT_THROW(fractional.validate(), InvalidArgumentError);

  GeometryConfig timing = GeometryConfig::rram_isscc_2012();
  timing.timing.t_wp_max = timing.timing.t_wp_min - 1;
  EXPECT_THROW(timing.validate(), InvalidArgumentError);

  // A scrub due again before its own slot ends would starve every bank.
  GeometryConfig scrub = GeometryConfig::rram_isscc_2012();
  scrub.scrub_interval_cycles = scrub.timing.t_scrub;
  EXPECT_THROW(scrub.validate(), InvalidArgumentError);
  scrub.scrub_interval_cycles = scrub.timing.t_scrub + 1;
  EXPECT_NO_THROW(scrub.validate());
  scrub.scrub_interval_cycles = 0;  // scrub off
  EXPECT_NO_THROW(scrub.validate());
}

TEST(Geometry, DecodeEncodeRoundTripsEveryFieldExtreme) {
  const GeometryConfig g = GeometryConfig::rram_isscc_2012();
  const std::vector<DecodedAddress> corners = {
      {0, 0, 0, 0},
      {g.channels - 1, 0, 0, 0},
      {0, g.banks_per_channel - 1, 0, 0},
      {0, 0, g.rows_per_bank - 1, 0},
      {0, 0, 0, g.words_per_row - 1},
      {g.channels - 1, g.banks_per_channel - 1, g.rows_per_bank - 1,
       g.words_per_row - 1},
      {2, 1, 4097, 300},
  };
  for (const DecodedAddress& want : corners) {
    const std::uint64_t address = encode_address(g, want);
    EXPECT_EQ(decode_address(g, address), want)
        << "ch=" << want.channel << " bank=" << want.bank << " row=" << want.row
        << " col=" << want.col;
  }
}

TEST(Geometry, ChannelBitsAreLowestSoSequentialStreamsStripe) {
  // Consecutive word-aligned addresses must land on consecutive channels
  // (NVMain's RV:BK:CH interleave) so a sequential burst spreads bank load.
  const GeometryConfig g = GeometryConfig::rram_isscc_2012();
  for (std::uint64_t word = 0; word < 8; ++word) {
    const DecodedAddress d = decode_address(g, word * g.bytes_per_access());
    EXPECT_EQ(d.channel, word % g.channels) << word;
  }
}

TEST(Geometry, AddressesBeyondCapacityWrap) {
  const GeometryConfig g = GeometryConfig::rram_isscc_2012();
  const std::uint64_t capacity = g.capacity_bytes();
  EXPECT_EQ(decode_address(g, capacity + 12), decode_address(g, 12));
}

TEST(Geometry, EncodeRejectsOutOfRangeFields) {
  const GeometryConfig g = GeometryConfig::rram_isscc_2012();
  DecodedAddress bad;
  bad.row = g.rows_per_bank;  // one past the end
  EXPECT_THROW(encode_address(g, bad), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// .memcfg parsing
// ---------------------------------------------------------------------------

TEST(MemsysConfig, ParsesKeysCommentsAndBlanks) {
  const GeometryConfig g = parse_memsys_config(
      "; NVMain-style comment\n"
      "# hash comment too\n"
      "\n"
      "CHANNELS 2\n"
      "BANKS 8\n"
      "ROWS 1024\n"
      "COLS 256        ; trailing comment\n"
      "BITS_PER_CELL 2\n"
      "CLK_MHZ 800\n"
      "tWP_MAX 2000\n"
      "QUEUE_DEPTH 16\n");
  EXPECT_EQ(g.channels, 2u);
  EXPECT_EQ(g.banks_per_channel, 8u);
  EXPECT_EQ(g.rows_per_bank, 1024u);
  EXPECT_EQ(g.words_per_row, 256u);
  EXPECT_EQ(g.bits_per_cell, 2u);
  EXPECT_DOUBLE_EQ(g.timing.clk_mhz, 800.0);
  EXPECT_EQ(g.timing.t_wp_max, 2000u);
  EXPECT_EQ(g.queue_depth, 16u);
  // Unspecified keys keep the rram_isscc_2012 defaults.
  EXPECT_EQ(g.timing.t_rcd, GeometryConfig::rram_isscc_2012().timing.t_rcd);
}

TEST(MemsysConfig, RejectsUnknownKeyWithLineNumber) {
  try {
    parse_memsys_config("CHANNELS 2\nBOGUS_KEY 7\n");
    FAIL() << "unknown key accepted";
  } catch (const InvalidArgumentError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("BOGUS_KEY"), std::string::npos) << message;
    EXPECT_NE(message.find("2"), std::string::npos) << message;
  }
}

TEST(MemsysConfig, RejectsMalformedValueAndMissingValue) {
  EXPECT_THROW(parse_memsys_config("CHANNELS lots\n"), InvalidArgumentError);
  EXPECT_THROW(parse_memsys_config("CHANNELS\n"), InvalidArgumentError);
  // Parsed configs are validated: a config that parses but is non-physical
  // still throws.
  EXPECT_THROW(parse_memsys_config("CHANNELS 0\n"), InvalidArgumentError);
  // A '-' would wrap an unsigned field, and a non-finite number is no value:
  // both are the line-numbered value errors, never a parsed config.
  // So are a fraction or an exponent in an integer key, an overflowing clock
  // and an unknown scheduler policy.
  for (const char* line : {"CHANNELS -1", "ROWS -8192", "QUEUE_DEPTH -1", "tSCRUB -5",
                           "SCRUB_INTERVAL -1", "CLK_MHZ inf", "CLK_MHZ nan",
                           "CHANNELS 0.5", "ROWS 1e30", "CLK_MHZ 1e400",
                           "SCHED_POLICY bogus"}) {
    try {
      parse_memsys_config(std::string("# header\n") + line + "\n");
      ADD_FAILURE() << "parsed: " << line;
    } catch (const util::ParseError& e) {
      EXPECT_EQ(e.line(), 2u) << e.what();
      EXPECT_NE(std::string(e.what()).find("expects"), std::string::npos) << e.what();
    }
  }
}

TEST(MemsysConfig, RejectsWordWiderThanTracePayload) {
  // 16 six-bit cells are 96 bits: whole bytes, but wider than the 64-bit
  // payload every trace write carries, so cells 11-15 would reread bits of
  // cells 0-5.
  try {
    parse_memsys_config("CELLS_PER_WORD 16\nBITS_PER_CELL 6\nROWS 256\n");
    FAIL() << "a 96-bit device word parsed";
  } catch (const InvalidArgumentError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("CELLS_PER_WORD"), std::string::npos) << message;
    EXPECT_NE(message.find("BITS_PER_CELL"), std::string::npos) << message;
    EXPECT_NE(message.find("64-bit"), std::string::npos) << message;
  }
  // A word that fills the payload exactly is fine.
  EXPECT_EQ(parse_memsys_config("CELLS_PER_WORD 16\n").bytes_per_access(), 8u);
}

TEST(MemsysConfig, BrokenRulesAndRepeatedKeysNameTheirLine) {
  // A rule the parsed geometry breaks is reported at the line of the last
  // key it reads, and a key given twice at its second line.
  const struct {
    const char* text;
    std::size_t line;
    const char* message;
  } cases[] = {
      {"CHANNELS 0\n", 1, "CHANNELS must be positive"},
      {"# geometry\nBANKS 2\nBITS_PER_CELL 7\n", 3, "BITS_PER_CELL must be in [1, 6], got 7"},
      {"CELLS_PER_WORD 16\nBITS_PER_CELL 6\nROWS 256\n", 2, "64-bit trace payload"},
      {"BITS_PER_CELL 6\nROWS 256\nCELLS_PER_WORD 16\n", 3, "64-bit trace payload"},
      {"tWP_MAX 100\nQUEUE_DEPTH 4\n", 1, "0 < tWP_MIN <= tWP_MAX, got [220, 100]"},
      {"WRITE_DRAIN_THRESHOLD 0\nSCHED_POLICY WRITE_DRAIN\n", 2,
       "WRITE_DRAIN_THRESHOLD must be positive"},
      {"SCRUB_INTERVAL 440\nQUEUE_DEPTH 4\n", 1,
       "SCRUB_INTERVAL must be 0 or exceed tSCRUB, got 440 <= 440"},
      {"SCRUB_INTERVAL 600\n# slower scrub slots\ntSCRUB 600\n", 3,
       "SCRUB_INTERVAL must be 0 or exceed tSCRUB, got 600 <= 600"},
      {"CHANNELS 2\nCHANNELS 4\n", 2, "key 'CHANNELS' already set on line 1"},
      {"COLS 8\nBANKS 2\nWORDS_PER_ROW 16\n", 3, "key 'WORDS_PER_ROW' already set on line 1"},
  };
  for (const auto& c : cases) {
    try {
      parse_memsys_config(c.text);
      ADD_FAILURE() << "parsed: " << c.text;
    } catch (const util::ParseError& e) {
      const std::string message = e.what();
      EXPECT_EQ(e.line(), c.line) << message;
      EXPECT_NE(message.find(c.message), std::string::npos) << message;
      EXPECT_EQ(message.find("[check "), std::string::npos) << message;
    }
  }
}

TEST(MemsysConfig, LoadRejectsMissingFile) {
  EXPECT_THROW(load_memsys_config("/nonexistent/geometry.memcfg"), Error);
}

// ---------------------------------------------------------------------------
// Trace front-end
// ---------------------------------------------------------------------------

TEST(Trace, ParsesTheDocumentedFormat) {
  const auto trace = parse_trace_text(
      "# gem5 export\n"
      "0 R 0x1000\n"
      "5 W 0x2000 0xDEADBEEF 3\n"  // with payload and (ignored) thread id
      "5 read 4096\n"              // case-insensitive long form, decimal addr
      "9 WRITE 0x3000 15\n");
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], (TraceRequest{0, false, 0x1000, 0}));
  EXPECT_EQ(trace[1], (TraceRequest{5, true, 0x2000, 0xDEADBEEFull}));
  EXPECT_EQ(trace[2], (TraceRequest{5, false, 4096, 0}));
  EXPECT_EQ(trace[3], (TraceRequest{9, true, 0x3000, 15}));
}

TEST(Trace, ParseErrorsCarryTheLineNumber) {
  const auto expect_line_2 = [](const std::string& text) {
    try {
      parse_trace_text(text);
      FAIL() << "accepted: " << text;
    } catch (const util::ParseError& e) {
      EXPECT_EQ(e.line(), 2u) << e.what();
    }
  };
  expect_line_2("0 R 0x10\n1 X 0x20\n");      // bad opcode
  expect_line_2("0 R 0x10\n1 R\n");           // missing address
  expect_line_2("0 R 0x10\n1 R zebra\n");     // non-numeric address
  expect_line_2("7 R 0x10\n3 R 0x20\n");      // decreasing cycles
  // Numeric mutations of each field. A '-' must not wrap to 2^64 - N, and
  // a real, a non-finite value or an exponent is no unsigned integer.
  for (const std::string value : {"-1", "nan", "inf", "-inf", "1e400", "0.5", "1e30"}) {
    expect_line_2("0 R 0x10\n" + value + " R 0x20\n");     // cycle
    expect_line_2("0 R 0x10\n1 R " + value + "\n");         // address
    expect_line_2("0 R 0x10\n1 W 0x20 " + value + "\n");    // data
    expect_line_2("0 R 0x10\n1 W 0x20 7 " + value + "\n");  // thread id
  }
}

TEST(Trace, WriteAndParseRoundTrip) {
  const GeometryConfig g = GeometryConfig::rram_isscc_2012();
  SyntheticTraceOptions options;
  options.requests = 200;
  const auto trace = synthesize_trace(g, options);
  std::ostringstream out;
  write_trace(out, trace);
  const auto reparsed = parse_trace_text(out.str());
  EXPECT_EQ(reparsed, trace);
}

TEST(Trace, SynthesisIsDeterministicAndSeedSensitive) {
  const GeometryConfig g = GeometryConfig::rram_isscc_2012();
  SyntheticTraceOptions options;
  options.requests = 500;
  const auto a = synthesize_trace(g, options);
  const auto b = synthesize_trace(g, options);
  EXPECT_EQ(a, b);
  options.seed ^= 1;
  EXPECT_NE(synthesize_trace(g, options), a);

  // Contracted properties: word-aligned in-capacity addresses, sorted cycles.
  std::uint64_t previous = 0;
  for (const TraceRequest& r : a) {
    EXPECT_EQ(r.address % g.bytes_per_access(), 0u);
    EXPECT_LT(r.address, g.capacity_bytes());
    EXPECT_GE(r.cycle, previous);
    previous = r.cycle;
  }
}

// ---------------------------------------------------------------------------
// Scheduler: level-dependent write pulse
// ---------------------------------------------------------------------------

TEST(Scheduler, DeepestLevelScansTheWordsFields) {
  const GeometryConfig g = GeometryConfig::rram_isscc_2012();  // 8 cells x 4 bits
  EXPECT_EQ(deepest_level(g, 0x00000000ull), 0u);
  EXPECT_EQ(deepest_level(g, 0x00000007ull), 7u);
  EXPECT_EQ(deepest_level(g, 0x51111111ull), 5u);   // deepest field is the top nibble
  EXPECT_EQ(deepest_level(g, 0xF0000000ull), 15u);
  // Bits beyond the word's cells are ignored (8 x 4 = 32 bits).
  EXPECT_EQ(deepest_level(g, 0xF00000000ull), 0u);
}

TEST(Scheduler, WritePulseInterpolatesMinToMax) {
  const GeometryConfig g = GeometryConfig::rram_isscc_2012();
  const std::uint64_t min_pulse = write_pulse_cycles(g, 0x0);
  const std::uint64_t max_pulse = write_pulse_cycles(g, 0xF0000000ull);
  EXPECT_EQ(min_pulse, g.timing.t_wp_min);
  EXPECT_EQ(max_pulse, g.timing.t_wp_max);
  const std::uint64_t mid = write_pulse_cycles(g, 0x8);  // level 8 of 15
  EXPECT_GT(mid, min_pulse);
  EXPECT_LT(mid, max_pulse);
}

// ---------------------------------------------------------------------------
// Scheduler: exact service-time accounting on hand-built traces
// ---------------------------------------------------------------------------

// A single-channel single-bank geometry with maintenance disabled, so every
// completion cycle is hand-computable from TimingParams alone.
GeometryConfig tiny_geometry() {
  GeometryConfig g = GeometryConfig::rram_isscc_2012();
  g.channels = 1;
  g.banks_per_channel = 1;
  g.rows_per_bank = 64;
  g.words_per_row = 16;
  g.scrub_interval_cycles = 0;
  g.rotate_every_writes = 0;
  return g;
}

std::uint64_t addr(const GeometryConfig& g, std::size_t row, std::size_t col) {
  return encode_address(g, DecodedAddress{0, 0, row, col});
}

TEST(Scheduler, RowMissHitAndConflictServiceTimes) {
  // Read data streams out over the bus during the LAST tBURST cycles of the
  // column access, so on an idle channel a read completes at t + service with
  // no burst tax; the bus only adds latency when another bank holds it.
  const GeometryConfig g = tiny_geometry();
  const TimingParams& t = g.timing;
  const std::vector<TraceRequest> trace = {
      {0, false, addr(g, 3, 0), 0},   // cold bank: MISS  = tRCD + tCAS
      {0, false, addr(g, 3, 1), 0},   // same row:  HIT   = tCAS
      {0, false, addr(g, 9, 0), 0},   // other row: CONFLICT = tRP + tRCD + tCAS
  };
  CommandScheduler scheduler(g);
  const ScheduleResult result = scheduler.run(trace);

  ASSERT_EQ(result.latency_cycles.size(), 3u);
  const std::uint64_t miss_done = t.t_rcd + t.t_cas;  // 32: burst overlapped
  EXPECT_EQ(result.latency_cycles[0], miss_done);
  // The hit issues when the bank frees at 32; its burst window [38, 42)
  // starts after the first read released the bus, so no serialization delay.
  const std::uint64_t hit_done = miss_done + t.t_cas;
  EXPECT_EQ(result.latency_cycles[1], hit_done);
  EXPECT_EQ(result.latency_cycles[2], hit_done + t.t_rp + t.t_rcd + t.t_cas);

  ASSERT_EQ(result.banks.size(), 1u);
  EXPECT_EQ(result.banks[0].row_misses, 1u);
  EXPECT_EQ(result.banks[0].row_hits, 1u);
  EXPECT_EQ(result.banks[0].row_conflicts, 1u);
  EXPECT_EQ(result.requests_retired, 3u);
}

TEST(Scheduler, WriteServiceTimeTracksDeepestLevel) {
  const GeometryConfig g = tiny_geometry();
  const TimingParams& t = g.timing;
  // Two cold writes to different rows of two traces: shallow vs deepest word.
  for (const std::uint64_t payload : {std::uint64_t{0x0}, std::uint64_t{0xF}}) {
    CommandScheduler scheduler(g);
    const std::vector<TraceRequest> trace = {{0, true, addr(g, 0, 0), payload}};
    const ScheduleResult result = scheduler.run(trace);
    ASSERT_EQ(result.latency_cycles.size(), 1u);
    const std::uint64_t expected =
        t.t_rcd + (payload == 0 ? t.t_wp_min : t.t_wp_max);
    EXPECT_EQ(result.latency_cycles[0], expected) << "payload " << payload;
  }
}

TEST(Scheduler, FrFcfsPrefersOpenRowHitOverOlderConflict) {
  // Queue two requests while the bank is busy: an older request to a DIFFERENT
  // row and a younger one to the row left open. FR-FCFS issues the younger
  // row hit first; FCFS would issue the older conflict first. Distinguish by
  // the conflict count: FR-FCFS services the hit (still 1 conflict for the
  // other row), strict FCFS would pay a conflict AND a reopening miss for the
  // queued hit's row (2 non-hits after the warmup).
  const GeometryConfig g = tiny_geometry();
  const std::vector<TraceRequest> trace = {
      {0, false, addr(g, 5, 0), 0},  // warms row 5 (MISS), bank busy
      {1, false, addr(g, 8, 0), 0},  // older: conflict row
      {2, false, addr(g, 5, 1), 0},  // younger: hit on the open row
  };
  CommandScheduler scheduler(g);
  const ScheduleResult result = scheduler.run(trace);
  ASSERT_EQ(result.banks.size(), 1u);
  EXPECT_EQ(result.banks[0].row_hits, 1u);       // the row-5 hit was served as a hit
  EXPECT_EQ(result.banks[0].row_conflicts, 1u);  // only row 8 paid a conflict
  // And the hit completed before the older conflict request.
  EXPECT_LT(trace[2].cycle + result.latency_cycles[2],
            trace[1].cycle + result.latency_cycles[1]);
}

TEST(Scheduler, FcfsServesStrictArrivalOrderIgnoringRowLocality) {
  // The same trace as FrFcfsPrefersOpenRowHitOverOlderConflict under strict
  // FCFS: the older row-8 request issues first (conflict), which closes row 5,
  // so the queued row-5 request pays a SECOND conflict instead of a hit.
  GeometryConfig g = tiny_geometry();
  g.scheduler_policy = SchedulerPolicy::kFcfs;
  const std::vector<TraceRequest> trace = {
      {0, false, addr(g, 5, 0), 0},  // warms row 5 (MISS), bank busy
      {1, false, addr(g, 8, 0), 0},  // older: conflict row
      {2, false, addr(g, 5, 1), 0},  // younger: would hit under FR-FCFS
  };
  CommandScheduler scheduler(g);
  const ScheduleResult result = scheduler.run(trace);
  ASSERT_EQ(result.banks.size(), 1u);
  EXPECT_EQ(result.banks[0].row_hits, 0u);
  EXPECT_EQ(result.banks[0].row_misses, 1u);      // only the warmup
  EXPECT_EQ(result.banks[0].row_conflicts, 2u);   // row 8, then row 5 again
  // Arrival order is completion order.
  EXPECT_LT(trace[1].cycle + result.latency_cycles[1],
            trace[2].cycle + result.latency_cycles[2]);
}

TEST(Scheduler, WriteDrainBatchesWritesPastAnOlderReadHit) {
  // Three requests queue behind a warmup read: write, read (open-row hit),
  // write. With two writes queued the threshold trips, the bank drains BOTH
  // writes back to back — even past the older read that FR-FCFS would serve
  // first as a row hit — and only then returns to the read stream.
  GeometryConfig g = tiny_geometry();
  g.scheduler_policy = SchedulerPolicy::kWriteDrain;
  g.write_drain_threshold = 2;
  const std::vector<TraceRequest> trace = {
      {0, false, addr(g, 1, 0), 0},  // warms row 1, bank busy
      {1, true, addr(g, 2, 0), 0},   // queued write #1
      {2, false, addr(g, 1, 1), 0},  // read: hit on the open row
      {3, true, addr(g, 3, 0), 0},   // queued write #2 -> threshold reached
  };
  CommandScheduler scheduler(g);
  const ScheduleResult result = scheduler.run(trace);
  const std::uint64_t read_done = trace[2].cycle + result.latency_cycles[2];
  const std::uint64_t write1_done = trace[1].cycle + result.latency_cycles[1];
  const std::uint64_t write2_done = trace[3].cycle + result.latency_cycles[3];
  EXPECT_LT(write1_done, read_done);
  EXPECT_LT(write2_done, read_done);

  // Control: plain FR-FCFS serves the read hit before the younger write.
  g.scheduler_policy = SchedulerPolicy::kFrFcfs;
  CommandScheduler control(g);
  const ScheduleResult fr = control.run(trace);
  EXPECT_LT(trace[2].cycle + fr.latency_cycles[2],
            trace[3].cycle + fr.latency_cycles[3]);
}

TEST(Scheduler, WriteDrainExitsOnceWritesAreExhausted) {
  // After the drain empties the write queue the bank must return to serving
  // reads (the drain flag clears) — every request retires.
  GeometryConfig g = tiny_geometry();
  g.scheduler_policy = SchedulerPolicy::kWriteDrain;
  g.write_drain_threshold = 1;
  std::vector<TraceRequest> trace;
  for (std::uint64_t i = 0; i < 12; ++i) {
    trace.push_back({i, i % 3 == 0, addr(g, i % 4, i % 8), 0});
  }
  CommandScheduler scheduler(g);
  const ScheduleResult result = scheduler.run(trace);
  EXPECT_EQ(result.requests_retired, trace.size());
  EXPECT_EQ(result.reads + result.writes, trace.size());
}

TEST(SchedulerPolicyNames, RoundTripAndRejection) {
  EXPECT_STREQ(scheduler_policy_name(SchedulerPolicy::kFcfs), "fcfs");
  EXPECT_STREQ(scheduler_policy_name(SchedulerPolicy::kFrFcfs), "fr_fcfs");
  EXPECT_STREQ(scheduler_policy_name(SchedulerPolicy::kWriteDrain), "write_drain");
  EXPECT_EQ(parse_scheduler_policy("FCFS"), SchedulerPolicy::kFcfs);
  EXPECT_EQ(parse_scheduler_policy("FR_FCFS"), SchedulerPolicy::kFrFcfs);
  EXPECT_EQ(parse_scheduler_policy("WRITE_DRAIN"), SchedulerPolicy::kWriteDrain);
  EXPECT_THROW(parse_scheduler_policy("fr_fcfs"), InvalidArgumentError);  // case-sensitive
  EXPECT_THROW(parse_scheduler_policy("LIFO"), InvalidArgumentError);
}

TEST(MemsysConfig, ParsesSchedulerPolicyAndDrainThreshold) {
  const GeometryConfig config = parse_memsys_config(
      "SCHED_POLICY WRITE_DRAIN\n"
      "WRITE_DRAIN_THRESHOLD 4\n");
  EXPECT_EQ(config.scheduler_policy, SchedulerPolicy::kWriteDrain);
  EXPECT_EQ(config.write_drain_threshold, 4u);
  EXPECT_EQ(parse_memsys_config("SCHED_POLICY FCFS\n").scheduler_policy,
            SchedulerPolicy::kFcfs);
  // Default stays the classic FR-FCFS.
  EXPECT_EQ(parse_memsys_config("").scheduler_policy, SchedulerPolicy::kFrFcfs);
  EXPECT_THROW(parse_memsys_config("SCHED_POLICY NONE\n"), InvalidArgumentError);
  // A zero threshold is only invalid when the drain policy is selected.
  EXPECT_THROW(parse_memsys_config("SCHED_POLICY WRITE_DRAIN\n"
                                   "WRITE_DRAIN_THRESHOLD 0\n"),
               InvalidArgumentError);
  EXPECT_NO_THROW(parse_memsys_config("WRITE_DRAIN_THRESHOLD 0\n"));
}

TEST(Geometry, AcceptsFiveAndSixBitsPerCell) {
  // The density stretch targets of the ECC explorer: 5 and 6 bits/cell are
  // valid geometries as long as a word stays byte-aligned (8 cells work for
  // both); 7 is past the allocator's range and must be rejected.
  for (const std::size_t bits : {std::size_t{5}, std::size_t{6}}) {
    GeometryConfig g = GeometryConfig::rram_isscc_2012();
    g.bits_per_cell = bits;
    g.cells_per_word = 8;
    EXPECT_NO_THROW(g.validate()) << bits;
  }
  GeometryConfig bad = GeometryConfig::rram_isscc_2012();
  bad.bits_per_cell = 7;
  bad.cells_per_word = 8;
  EXPECT_THROW(bad.validate(), InvalidArgumentError);
}

TEST(Scheduler, BanksServiceInParallelButShareTheChannelBus) {
  // Two banks on one channel, simultaneous cold reads: activation overlaps,
  // but the two tBURST transfers serialize on the shared bus — the second
  // bank's burst waits for the first to release it, costing exactly tBURST.
  GeometryConfig g = tiny_geometry();
  g.banks_per_channel = 2;
  const TimingParams& t = g.timing;
  const std::vector<TraceRequest> trace = {
      {0, false, encode_address(g, {0, 0, 0, 0}), 0},
      {0, false, encode_address(g, {0, 1, 0, 0}), 0},
  };
  CommandScheduler scheduler(g);
  const ScheduleResult result = scheduler.run(trace);
  const std::uint64_t solo = t.t_rcd + t.t_cas;  // burst overlaps the tail
  EXPECT_EQ(result.latency_cycles[0], solo);
  EXPECT_EQ(result.latency_cycles[1], solo + t.t_burst);  // bus serialization only
  EXPECT_EQ(result.total_cycles, solo + t.t_burst);
}

TEST(Scheduler, DistinctChannelsDoNotShareTheBus) {
  GeometryConfig g = tiny_geometry();
  g.channels = 2;
  const TimingParams& t = g.timing;
  const std::vector<TraceRequest> trace = {
      {0, false, encode_address(g, {0, 0, 0, 0}), 0},
      {0, false, encode_address(g, {1, 0, 0, 0}), 0},
  };
  CommandScheduler scheduler(g);
  const ScheduleResult result = scheduler.run(trace);
  const std::uint64_t solo = t.t_rcd + t.t_cas;
  EXPECT_EQ(result.latency_cycles[0], solo);
  EXPECT_EQ(result.latency_cycles[1], solo);  // fully parallel
}

TEST(Scheduler, ScrubCommandsAreInjectedAtTheConfiguredInterval) {
  GeometryConfig g = tiny_geometry();
  g.scrub_interval_cycles = 1000;
  // A sparse read stream spanning ~5 intervals keeps the bank mostly idle, so
  // every due scrub slot is taken.
  std::vector<TraceRequest> trace;
  for (std::uint64_t i = 0; i < 10; ++i) {
    trace.push_back({i * 500, false, addr(g, 0, 0), 0});
  }
  CommandScheduler scheduler(g);
  const ScheduleResult result = scheduler.run(trace);
  EXPECT_GE(result.scrub_commands, 3u);
  EXPECT_EQ(result.scrub_commands, result.banks[0].scrubs);
  // Scrub closes the open row: not every re-read of row 0 can be a hit.
  EXPECT_LT(result.banks[0].row_hits, 9u);
}

TEST(Scheduler, WearRotationRemapsLaterArrivals) {
  GeometryConfig g = tiny_geometry();
  g.rotate_every_writes = 4;
  std::vector<TraceRequest> trace;
  for (std::uint64_t i = 0; i < 12; ++i) {
    trace.push_back({i * 4000, true, addr(g, 7, 0), 0});  // same logical row
  }
  CommandScheduler scheduler(g);
  const ScheduleResult result = scheduler.run(trace);
  EXPECT_EQ(result.wear_rotations, 3u);
  // After a rotation the same logical row maps to a new physical row, so the
  // stream cannot be all hits after the first miss.
  EXPECT_GT(result.banks[0].row_conflicts, 0u);
}

TEST(Scheduler, RejectsDecreasingArrivals) {
  const GeometryConfig g = tiny_geometry();
  const std::vector<TraceRequest> trace = {
      {10, false, addr(g, 0, 0), 0},
      {4, false, addr(g, 0, 1), 0},
  };
  CommandScheduler scheduler(g);
  EXPECT_THROW(scheduler.run(trace), InvalidArgumentError);
}

TEST(Scheduler, FullQueueStallsAdmissionButEveryRequestRetires) {
  GeometryConfig g = tiny_geometry();
  g.queue_depth = 2;
  // A same-cycle burst of slow writes to one bank must overflow a depth-2
  // queue; admission stalls, but the trace still drains completely.
  std::vector<TraceRequest> trace;
  for (std::uint64_t i = 0; i < 16; ++i) {
    trace.push_back({0, true, addr(g, i % 4, 0), 0xF});
  }
  CommandScheduler scheduler(g);
  const ScheduleResult result = scheduler.run(trace);
  EXPECT_EQ(result.requests_retired, 16u);
  EXPECT_GT(result.queue_stall_cycles, 0u);
  EXPECT_EQ(result.banks[0].max_queue_depth, 2u);
}

// ---------------------------------------------------------------------------
// Full-MNA fidelity tier (hierarchical word-parallel bank)
// ---------------------------------------------------------------------------

// The hierarchical solver is what pays for the raised cap: pre-BlockSchurLu
// the tier afforded 2 monolithic single-cell transients; the word-parallel
// bank path at >=10x the per-transient speed carries 10x the samples in the
// same wall-clock budget. A silent revert of these defaults would quietly
// shrink physics coverage, so they are pinned.
TEST(Fidelity, MnaSampleCapRaisedTenfoldByHierarchicalTier) {
  const FidelityConfig config;
  EXPECT_EQ(config.mna_max_samples, 20u);       // was 2 (monolithic WritePath)
  EXPECT_EQ(config.mna_sample_period, 25'000u); // was 400'000

  FidelityEngine engine(GeometryConfig::rram_isscc_2012(), config);
  std::size_t mna_samples = 0;
  for (std::size_t i = 0; i < 20u * 25'000u; ++i) {
    if (engine.is_mna_sample(i)) ++mna_samples;
  }
  EXPECT_EQ(mna_samples, 20u);
  EXPECT_FALSE(engine.is_mna_sample(20u * 25'000u));
}

// Three words through the tier: every bit line carries its own level's IrefR
// comparator and all of them must terminate. The samples run on the pool, so
// 2 and 8 threads really split them; the report must be bit-identical at
// 1/2/8 threads (index-addressed outcomes reduced in sample order, each bank
// transient on a serial solver).
TEST(Fidelity, MnaTierWordBankTerminatesAndIsThreadBitIdentical) {
  const GeometryConfig geometry = GeometryConfig::rram_isscc_2012();
  const std::vector<WordSample> samples = {
      {7, 0x93A61C05u}, {25'007, 0x0F1E2D3C4B5A6978ull}, {50'007, 0xFEDCBA9876543210ull}};

  std::vector<MnaTierReport> reports;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    FidelityConfig config;
    config.threads = threads;
    FidelityEngine engine(geometry, config);
    reports.push_back(engine.run_mna_tier(samples));
  }

  EXPECT_EQ(reports[0].samples, samples.size());
  EXPECT_EQ(reports[0].terminated, samples.size());  // whole words, all bit lines
  EXPECT_GT(reports[0].mean_t_terminate_s, 0.0);
  EXPECT_LT(reports[0].mean_t_terminate_s, 4.5e-6);
  EXPECT_GT(reports[0].mean_energy_j, 0.0);
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].samples, reports[0].samples);
    EXPECT_EQ(reports[i].terminated, reports[0].terminated);
    EXPECT_EQ(std::memcmp(&reports[i].mean_t_terminate_s,
                          &reports[0].mean_t_terminate_s, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&reports[i].mean_energy_j,
                          &reports[0].mean_energy_j, sizeof(double)), 0);
  }
}

// ---------------------------------------------------------------------------
// Replay report and oxmlc.memsys.v1 schema
// ---------------------------------------------------------------------------

ReplayOptions small_replay_options() {
  ReplayOptions options;
  options.geometry = GeometryConfig::rram_isscc_2012();
  options.geometry.rows_per_bank = 256;  // keep the witness/scrub fast
  options.fidelity.word_sample_period = 50;
  options.fidelity.word_max_samples = 4;
  options.fidelity.mna_sample_period = 200;
  options.fidelity.mna_max_samples = 1;
  return options;
}

std::vector<TraceRequest> small_trace(const GeometryConfig& geometry) {
  SyntheticTraceOptions options;
  options.requests = 600;
  return synthesize_trace(geometry, options);
}

TEST(Replay, ReportInvariantsAndMetrics) {
  const ReplayOptions options = small_replay_options();
  const auto trace = small_trace(options.geometry);

  const std::uint64_t retired_before =
      obs::registry().counter("memsys.requests_retired").value();

  const MemsysReport report = replay_trace(trace, options);

  EXPECT_EQ(report.requests, trace.size());
  EXPECT_EQ(report.requests_retired, trace.size());
  EXPECT_EQ(report.reads + report.writes, report.requests_retired);
  EXPECT_GT(report.total_cycles, 0u);
  EXPECT_GT(report.simulated_seconds, 0.0);
  EXPECT_GT(report.sustained_mb_s, 0.0);
  EXPECT_GE(report.row_hit_rate, 0.0);
  EXPECT_LE(report.row_hit_rate, 1.0);
  EXPECT_GE(report.latency.p99_ns, report.latency.p50_ns);
  EXPECT_GE(report.latency.p999_ns, report.latency.p99_ns);
  EXPECT_GE(report.latency.max_ns, report.latency.p999_ns);
  EXPECT_EQ(report.banks.size(), options.geometry.total_banks());
  EXPECT_GT(report.mean_bank_occupancy, 0.0);
  EXPECT_LE(report.mean_bank_occupancy, 1.0);

  // Fidelity tiers ran on the sampled writes.
  EXPECT_GT(report.word_tier.samples, 0u);
  EXPECT_EQ(report.word_tier.unterminated, 0u);
  EXPECT_GT(report.word_tier.mean_latency_s, 0.0);
  EXPECT_EQ(report.mna_tier.samples, 1u);
  EXPECT_EQ(report.mna_tier.terminated, 1u);
  EXPECT_GT(report.witness.words_written, 0u);
  EXPECT_GT(report.witness.words_skipped, 0u);  // one row deliberately unwritten

  // Telemetry: the registry counter advanced by exactly this replay's count.
  EXPECT_EQ(obs::registry().counter("memsys.requests_retired").value(),
            retired_before + report.requests_retired);
}

TEST(Replay, McTrialsCountTheWordAndMnaSamples) {
  // Both fidelity tiers run their samples through mc::run_trials, so the
  // runner's trial counter advances by exactly the samples they evaluated.
  const ReplayOptions options = small_replay_options();
  const auto trace = small_trace(options.geometry);
  const obs::Counter& trials = obs::registry().counter("mc.trials");
  const std::uint64_t before = trials.value();
  const MemsysReport report = replay_trace(trace, options);
  EXPECT_GT(report.word_tier.samples, 0u);
  EXPECT_GT(report.mna_tier.samples, 0u);
  EXPECT_EQ(trials.value() - before, report.word_tier.samples + report.mna_tier.samples);
}

TEST(Replay, JsonCarriesTheSchemaAndSections) {
  const ReplayOptions options = small_replay_options();
  const auto trace = small_trace(options.geometry);
  const obs::Json document = to_json(replay_trace(trace, options));

  EXPECT_EQ(document.get("schema").as_string(), util::kMemsysSchema);
  ASSERT_TRUE(document.contains("geometry"));
  ASSERT_TRUE(document.contains("schedule"));
  ASSERT_TRUE(document.contains("latency"));
  ASSERT_TRUE(document.contains("banks"));
  ASSERT_TRUE(document.contains("word_tier"));
  ASSERT_TRUE(document.contains("mna_tier"));
  ASSERT_TRUE(document.contains("witness"));
  EXPECT_GT(document.get("schedule").get("requests_retired").as_number(), 0.0);
  EXPECT_EQ(document.get("banks").size(), options.geometry.total_banks());
  // Wall-clock time is struct-only: machine-dependent values must never
  // leak into the deterministic schema.
  EXPECT_FALSE(document.contains("wall_seconds"));
  // The dump round-trips through the parser.
  EXPECT_EQ(obs::Json::parse(document.dump(2)), document);
}

// The latency summaries select their quantiles instead of sorting; each must
// equal util::quantile on a sorted copy of the scheduler's latencies.
TEST(Replay, LatencyQuantilesMatchSortedSamples) {
  const ReplayOptions options = small_replay_options();
  SyntheticTraceOptions trace_options;
  trace_options.requests = 20000;
  const auto trace = synthesize_trace(options.geometry, trace_options);
  const MemsysReport report = replay_trace(trace, options);

  const ScheduleResult schedule = CommandScheduler(options.geometry).run(trace);
  const double cycle_ns = options.geometry.timing.cycle_s() * 1e9;
  std::vector<double> all_ns, read_ns, write_ns;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double ns = static_cast<double>(schedule.latency_cycles[i]) * cycle_ns;
    all_ns.push_back(ns);
    (trace[i].is_write ? write_ns : read_ns).push_back(ns);
  }
  const auto expect_summary = [](std::vector<double> sample, const LatencySummary& got) {
    ASSERT_FALSE(sample.empty());
    double total = 0.0;
    for (const double v : sample) total += v;
    std::sort(sample.begin(), sample.end());
    EXPECT_EQ(got.mean_ns, total / static_cast<double>(sample.size()));
    EXPECT_EQ(got.p50_ns, quantile(sample, 0.50));
    EXPECT_EQ(got.p99_ns, quantile(sample, 0.99));
    EXPECT_EQ(got.p999_ns, quantile(sample, 0.999));
    EXPECT_EQ(got.max_ns, sample.back());
  };
  {
    SCOPED_TRACE("all requests");
    expect_summary(all_ns, report.latency);
  }
  {
    SCOPED_TRACE("reads");
    expect_summary(read_ns, report.read_latency);
  }
  {
    SCOPED_TRACE("writes");
    expect_summary(write_ns, report.write_latency);
  }
}

TEST(Replay, ReportIsBitIdenticalAcrossThreadCounts) {
  const auto trace = small_trace(small_replay_options().geometry);
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ReplayOptions options = small_replay_options();
    options.threads = threads;
    options.fidelity.threads = threads;
    const std::string dump = to_json(replay_trace(trace, options)).dump();
    if (reference.empty()) {
      reference = dump;
    } else {
      EXPECT_EQ(dump, reference) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace oxmlc::memsys
