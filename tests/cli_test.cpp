// Black-box CLI contract for the oxmlc_sim driver (satellite of the memsys
// PR): bad invocations — unknown flags, missing or malformed arguments,
// unreadable inputs — must print usage and exit 2, never escape an uncaught
// exception; good trace-mode invocations must exit 0 and emit the
// oxmlc.memsys.v1 report schema.
//
// The tests exec the real binary (path injected by CMake as OXMLC_SIM_PATH)
// through /bin/sh, capturing exit status and combined output. When tools are
// not built (OXMLC_BUILD_EXAMPLES=OFF) the whole suite skips; the endurance
// explorer pin runs that example (OXMLC_ENDURANCE_EXPLORER_PATH). The bench
// flag and error cases also need OXMLC_BENCH_FIG11_PATH
// (OXMLC_BUILD_BENCH=ON); the lint corpus cases read tools/netlists/ under
// OXMLC_SOURCE_DIR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace oxmlc {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr combined
};

#ifdef OXMLC_SIM_PATH

RunResult run_command(const std::string& command) {
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::size_t n = fread(buffer, 1, sizeof(buffer), pipe)) {
    result.output.append(buffer, n);
    if (n < sizeof(buffer)) break;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

RunResult run(const std::string& binary, const std::string& arguments) {
  return run_command("'" + binary + "' " + arguments + " 2>&1");
}

RunResult run_sim(const std::string& arguments) { return run(OXMLC_SIM_PATH, arguments); }

std::string temp_path(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  return std::string(base != nullptr ? base : "/tmp") + "/" + name;
}

TEST(CliContract, UnknownFlagPrintsUsageAndExits2) {
  const RunResult result = run_sim("--frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("--frobnicate"), std::string::npos) << result.output;
}

TEST(CliContract, MissingFlagArgumentExits2) {
  for (const std::string flag : {"--trace", "--bits", "--seed", "--geometry"}) {
    const RunResult result = run_sim(flag);
    EXPECT_EQ(result.exit_code, 2) << flag << "\n" << result.output;
    EXPECT_NE(result.output.find("usage"), std::string::npos) << flag;
  }
}

TEST(CliContract, MalformedNumericValueExits2) {
  const RunResult result = run_sim("--trace-synth banana");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("usage"), std::string::npos) << result.output;

  // Values that parse but that the flag cannot mean: a negative count (which
  // std::stoull would wrap to 2^64 - 1) and a non-finite time. Each must be
  // rejected up front with an error line naming the flag, not run.
  const struct {
    const char* arguments;
    const char* error;
  } cases[] = {
      {"--trace-synth -1", "--trace-synth expects"},
      {"--qlc --trials -1", "--trials expects"},
      {"--threads -1 --trace-synth 10", "--threads expects"},
      {"--tran inf x.cir", "--tran expects"},
      {"--tran 5x x.cir", "--tran expects"},
  };
  for (const auto& c : cases) {
    const RunResult bad = run_sim(c.arguments);
    EXPECT_EQ(bad.exit_code, 2) << c.arguments << "\n" << bad.output;
    EXPECT_NE(bad.output.find(std::string("error: ") + c.error), std::string::npos)
        << c.arguments << "\n" << bad.output;
  }

#ifdef OXMLC_BENCH_FIG11_PATH
  // The benches read their flags through the same reader; a count must be at
  // least 1.
  for (const char* trials : {"-1", "abc", "0"}) {
    const RunResult bad = run(OXMLC_BENCH_FIG11_PATH, std::string("--trials ") + trials);
    EXPECT_EQ(bad.exit_code, 2) << trials << "\n" << bad.output;
    EXPECT_NE(bad.output.find("error: --trials expects"), std::string::npos)
        << trials << "\n" << bad.output;
  }

  // A size below the smallest one a bench can run exits 2 before any work,
  // instead of writing NaN into its JSON, sweeping nothing or aborting.
  const struct {
    const char* binary;
    const char* arguments;
    const char* error;
  } sizes[] = {
      {OXMLC_BENCH_ARRAY_SCALE_PATH, "--rows 0", "--rows expects an integer >= 1"},
      {OXMLC_BENCH_ARRAY_SCALE_PATH, "--cols 0", "--cols expects an integer >= 1"},
      {OXMLC_BENCH_TRACE_REPLAY_PATH, "--requests 0",
       "--requests expects an integer >= 1"},
      {OXMLC_BENCH_BATCH_THROUGHPUT_PATH, "--max-lanes 0",
       "--max-lanes expects an integer >= 16"},
      {OXMLC_BENCH_BATCH_THROUGHPUT_PATH, "--max-lanes 15",
       "--max-lanes expects an integer >= 16"},
      {OXMLC_BENCH_HIER_MNA_PATH, "--max-size 1", "--max-size expects an integer >= 8"},
      {OXMLC_BENCH_HIER_MNA_PATH, "--max-size 7", "--max-size expects an integer >= 8"},
      {OXMLC_BENCH_HIER_MNA_PATH, "--t-stop-ns 0", "--t-stop-ns expects an integer >= 1"},
  };
  for (const auto& c : sizes) {
    const RunResult bad = run(c.binary, c.arguments);
    EXPECT_EQ(bad.exit_code, 2) << c.binary << " " << c.arguments << "\n" << bad.output;
    EXPECT_NE(bad.output.find(std::string("error: ") + c.error), std::string::npos)
        << c.binary << " " << c.arguments << "\n" << bad.output;
  }
#endif
}

#ifdef OXMLC_BENCH_FIG11_PATH
TEST(CliContract, BenchLibraryErrorExits1) {
  // A library throw in a bench main prints `error: <what>` and exits 1
  // instead of aborting: here bench_results is a regular file, so the CSV
  // directory cannot be created.
  const std::filesystem::path dir = temp_path("oxmlc_cli_bench_error");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "bench_results") << "a file, not a directory\n";
  const RunResult result = run_command("cd '" + dir.string() + "' && '" +
                                       OXMLC_BENCH_FIG11_PATH + "' --trials 1 2>&1");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  const std::size_t error = result.output.find("error: ");
  ASSERT_NE(error, std::string::npos) << result.output;
  const std::string line = result.output.substr(error, result.output.find('\n', error) - error);
  EXPECT_NE(line.find("bench_results"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("terminate called"), std::string::npos) << result.output;
  std::filesystem::remove_all(dir);
}
#endif

TEST(CliContract, UnreadableTraceFileExits2) {
  const RunResult result = run_sim("--trace /nonexistent/requests.trc");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("usage"), std::string::npos) << result.output;
}

TEST(CliContract, UnreadableNetlistExits2) {
  const RunResult result = run_sim("/nonexistent/cell.sp");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("usage"), std::string::npos) << result.output;
}

TEST(CliContract, UnreadableGeometryConfigExits2) {
  const RunResult result =
      run_sim("--trace-synth 50 --geometry /nonexistent/geo.memcfg");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(CliContract, GeometryConfigErrorsNameTheirLine) {
  // A rule the geometry breaks, or a key given twice, is reported at the
  // offending line of the .memcfg, with no library source location.
  const struct {
    const char* text;
    const char* error;
  } cases[] = {
      {"# geometry\nCHANNELS 0\n", "memsys config line 2: CHANNELS must be positive"},
      {"BANKS 2\nBITS_PER_CELL 7\n", "memsys config line 2: BITS_PER_CELL must be in [1, 6]"},
      {"CHANNELS 2\nCHANNELS 4\n", "memsys config line 2: key 'CHANNELS' already set on line 1"},
  };
  for (const auto& c : cases) {
    const std::string path = temp_path("oxmlc_cli_geometry.memcfg");
    std::ofstream(path) << c.text;
    const RunResult result = run_sim("--trace-synth 50 --geometry '" + path + "'");
    std::remove(path.c_str());
    EXPECT_EQ(result.exit_code, 1) << c.text << "\n" << result.output;
    EXPECT_NE(result.output.find(c.error), std::string::npos) << result.output;
    EXPECT_EQ(result.output.find("[check "), std::string::npos) << result.output;
  }
}

TEST(CliContract, TraceAndTraceSynthAreMutuallyExclusive) {
  const RunResult result = run_sim("--trace x.trc --trace-synth 100");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(CliContract, MalformedTraceContentFailsCleanlyNotWithATraceback) {
  const std::string path = temp_path("oxmlc_cli_bad.trc");
  std::ofstream(path) << "0 R 0x10\n1 X 0x20\n";
  const RunResult result = run_sim("--trace '" + path + "'");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.exit_code, -1) << "killed by signal: uncaught exception?";
  EXPECT_NE(result.output.find("2"), std::string::npos)
      << "error should carry the line number:\n"
      << result.output;
  std::remove(path.c_str());
}

TEST(CliContract, SyntheticTraceReplayEmitsTheMemsysSchema) {
  const std::string report_path = temp_path("oxmlc_cli_report.json");
  const RunResult result =
      run_sim("--trace-synth 400 --threads 2 --report '" + report_path + "'");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("retired"), std::string::npos) << result.output;

  std::ifstream in(report_path);
  ASSERT_TRUE(in.good()) << "report not written: " << report_path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const obs::Json document = obs::Json::parse(text);
  EXPECT_EQ(document.get("schema").as_string(), "oxmlc.memsys.v1");
  EXPECT_EQ(document.get("schedule").get("requests_retired").as_number(), 400.0);
  std::remove(report_path.c_str());
}

TEST(CliContract, EccExplorerEmitsTheEccSchema) {
  // One reference word per policy point keeps this black-box run at seconds
  // scale; the in-process explorer tests cover depth, determinism and the
  // monotone ladder. Here the contract is: exit 0, a frontier on stdout, and
  // a parseable oxmlc.ecc.v1 report with the monotonicity bit set.
  const std::string report_path = temp_path("oxmlc_cli_ecc.json");
  const RunResult result =
      run_sim("--ecc --bits 4 --trials 1 --seed 3 --report '" + report_path + "'");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("frontier"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("uber monotone in code strength: yes"),
            std::string::npos)
      << result.output;

  std::ifstream in(report_path);
  ASSERT_TRUE(in.good()) << "report not written: " << report_path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const obs::Json document = obs::Json::parse(text);
  EXPECT_EQ(document.get("schema").as_string(), "oxmlc.ecc.v1");
  EXPECT_TRUE(document.get("uber_monotone").as_bool());
  EXPECT_EQ(document.get("seed").as_number(), 3.0);
  EXPECT_GT(document.get("frontier").size(), 0u);
  std::remove(report_path.c_str());
}

// Reads the JSON file at `path`.
obs::Json read_json(const std::string& path) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return obs::Json::parse(text);
}

TEST(CliContract, RetentionScrubDemoIsPinned) {
  // The 8x8 bake + scrub demo of --retention and the reliability counters of
  // the whole run, pinned to what they read when every caller wired the
  // array, its aging engine and the controller by hand. The controller now
  // samples, forms and ages its own cells, so these values must not move.
  const std::string report_path = temp_path("oxmlc_cli_retention_report.json");
  const std::string metrics_path = temp_path("oxmlc_cli_retention_metrics.json");
  const RunResult result =
      run_sim("--retention --bits 4 --trials 6 --seed 99 --threads 1 --report '" +
              report_path + "' --metrics '" + metrics_path + "'");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("scrub demo (8x8, 1 Ms bake): 58/64 cells re-terminated, "
                               "3.95 nJ"),
            std::string::npos)
      << result.output;

  const obs::Json demo = read_json(report_path).get("scrub_demo");
  EXPECT_EQ(demo.get("cells_checked").as_number(), 64.0);
  EXPECT_EQ(demo.get("cells_scrubbed").as_number(), 58.0);
  EXPECT_EQ(demo.get("scrub_energy_j").as_number(), 3.951805965659859e-09);

  const obs::Json counters = read_json(metrics_path).get("counters");
  const std::pair<const char*, double> pinned[] = {
      {"reliability.verify_passes", 15},    {"reliability.verify_resenses", 120},
      {"reliability.verify_reprograms", 18}, {"reliability.program_events", 204},
      {"reliability.reads_disturbed", 184}, {"reliability.advances", 16},
      {"reliability.lanes_advanced", 1024}, {"reliability.scrub_words", 8},
      {"reliability.cells_scrubbed", 58},
  };
  for (const auto& [name, value] : pinned) {
    EXPECT_EQ(counters.get(name).as_number(), value) << name;
  }
  std::remove(report_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(CliContract, ReplayWitnessIsPinned) {
  // The reliability witness of a 2000-request synthetic replay, pinned like
  // the scrub demo above: how the controller is built may change, these
  // values may not.
  const std::string report_path = temp_path("oxmlc_cli_witness_report.json");
  const RunResult result = run_sim("--trace-synth 2000 --report '" + report_path + "'");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  const obs::Json witness = read_json(report_path).get("witness");
  EXPECT_EQ(witness.get("words_written").as_number(), 3.0);
  EXPECT_EQ(witness.get("scrub_words").as_number(), 6.0);
  EXPECT_EQ(witness.get("cells_checked").as_number(), 48.0);
  EXPECT_EQ(witness.get("cells_scrubbed").as_number(), 48.0);
  EXPECT_EQ(witness.get("words_skipped").as_number(), 2.0);
  EXPECT_EQ(witness.get("scrub_energy_j").as_number(), 2.947065898818458e-09);
  std::remove(report_path.c_str());
}

#ifdef OXMLC_ENDURANCE_EXPLORER_PATH
TEST(CliContract, EnduranceExplorerIsPinned) {
  // The one program that wears a controller's cells past the endurance onset
  // (the explorer pulls it down to 20 cycles, so oxram::worn_params
  // compresses the window): its epoch table and summary at 24 cycles, pinned
  // like the scrub demo above.
  const RunResult result = run(OXMLC_ENDURANCE_EXPLORER_PATH, "24");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  const char* epochs =
      "+--------+------------+----------------+--------------------+-----------------+\n"
      "| cycles | raw errors | scrubbed cells | errors after scrub | window loss (%) |\n"
      "+--------+------------+----------------+--------------------+-----------------+\n"
      "|      4 |         31 |             31 |                  0 |             0.0 |\n"
      "|      8 |         31 |             31 |                  0 |             0.0 |\n"
      "|     12 |         29 |             29 |                  0 |             1.3 |\n"
      "|     16 |         31 |             31 |                  0 |             2.1 |\n"
      "|     20 |         31 |             31 |                  1 |             2.8 |\n"
      "|     24 |         30 |             31 |                  0 |             3.4 |\n"
      "+--------+------------+----------------+--------------------+-----------------+\n";
  const char* summary =
      "| write cycles                      |     24 |\n"
      "| verify re-programs                |     58 |\n"
      "| mean energy / write               | 707 pJ |\n"
      "| mean write latency (incl. verify) | 1.8 ms |\n"
      "| reads seen by cell (0,0)          |    115 |\n"
      "| cycles seen by cell (0,0)         |     53 |\n"
      "| scrub repairs every epoch         | yes    |\n"
      "| window loss never shrinks         | yes    |\n";
  EXPECT_NE(result.output.find(epochs), std::string::npos) << result.output;
  EXPECT_NE(result.output.find(summary), std::string::npos) << result.output;
}
#endif

TEST(CliContract, EccRejectsOutOfRangeBits) {
  const RunResult result = run_sim("--ecc --bits 7");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--bits must be in 1..6"), std::string::npos)
      << result.output;
}

TEST(CliContract, QlcHonoursTheThreadsFlag) {
  // --threads reaches the Monte-Carlo pool of --qlc (and --retention): the
  // mc.threads gauge reports the worker count the run actually used.
  for (const int threads : {1, 3}) {
    const std::string metrics_path = temp_path("oxmlc_cli_qlc_threads.json");
    const RunResult result = run_sim("--qlc --bits 2 --trials 4 --threads " +
                                     std::to_string(threads) + " --metrics '" +
                                     metrics_path + "'");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    std::ifstream in(metrics_path);
    ASSERT_TRUE(in.good()) << "metrics not written: " << metrics_path;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const obs::Json document = obs::Json::parse(text);
    EXPECT_EQ(document.get("gauges").get("mc.threads").as_number(),
              static_cast<double>(threads));
    std::remove(metrics_path.c_str());
  }
}

// The codes named by a broken fixture's `* expect: CODE...` header.
std::set<std::string> expected_codes(const std::filesystem::path& fixture) {
  std::ifstream file(fixture);
  std::string line;
  while (std::getline(file, line)) {
    const std::size_t pos = line.find("expect:");
    if (line.starts_with('*') && pos != std::string::npos) {
      std::istringstream codes_text(line.substr(pos + 7));
      std::set<std::string> codes;
      for (std::string code; codes_text >> code;) codes.insert(code);
      return codes;
    }
  }
  ADD_FAILURE() << fixture << ": no '* expect: CODE...' header";
  return {};
}

// The .cir netlists and .mlc configs of `dir`, in name order.
std::vector<std::filesystem::path> lint_inputs(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::filesystem::path& path = entry.path();
    if (path.extension() == ".cir" || path.extension() == ".mlc") files.push_back(path);
  }
  std::sort(files.begin(), files.end());
  return files;
}

struct LintReport {
  std::set<std::string> codes;
  double errors = 0.0;
  double warnings = 0.0;
};

// `--lint --json` on one .cir netlist or .mlc config. The report carries the
// oxmlc.lint.v2 schema and its dialect's domain, and oxmlc_sim exits 1
// exactly when a finding is an error.
LintReport lint_report(const std::filesystem::path& file) {
  const RunResult result = run_sim("--lint --json '" + file.string() + "'");
  EXPECT_TRUE(result.exit_code == 0 || result.exit_code == 1) << file << "\n" << result.output;
  obs::Json report;
  try {
    report = obs::Json::parse(result.output);
  } catch (const std::exception& e) {
    ADD_FAILURE() << file << ": not a JSON report (" << e.what() << ")\n" << result.output;
    return {{"<no report>"}, 0.0, 0.0};
  }
  EXPECT_EQ(report.get("schema").as_string(), "oxmlc.lint.v2") << file;
  EXPECT_EQ(report.get("domain").as_string(), file.extension() == ".mlc" ? "mlc" : "circuit")
      << file;
  LintReport lint;
  lint.errors = report.get("errors").as_number();
  lint.warnings = report.get("warnings").as_number();
  EXPECT_EQ(result.exit_code, lint.errors > 0 ? 1 : 0) << file;
  const obs::Json& diagnostics = report.get("diagnostics");
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    lint.codes.insert(diagnostics.at(i).get("code").as_string());
  }
  return lint;
}

const std::filesystem::path kNetlistDir =
    std::filesystem::path(OXMLC_SOURCE_DIR) / "tools" / "netlists";

// The lint corpus runs through the real `oxmlc_sim --lint --json`: each broken
// fixture of tools/netlists/broken/ flags exactly the codes its `* expect:`
// header names.
TEST(AnalyzeCorpus, BrokenFixturesFlagExpectedCodes) {
  std::size_t circuits = 0, configs = 0;
  for (const std::filesystem::path& file : lint_inputs(kNetlistDir / "broken")) {
    EXPECT_EQ(lint_report(file).codes, expected_codes(file)) << file;
    ++(file.extension() == ".mlc" ? configs : circuits);
  }
  EXPECT_GE(circuits, 10u);
  EXPECT_GE(configs, 6u);
}

// Every shipped netlist and config of tools/netlists/ lints with no finding,
// and so does the built-in paper placement (no file, --bits 4).
TEST(AnalyzeCorpus, ShippedNetlistsLintClean) {
  std::size_t circuits = 0, configs = 0;
  for (const std::filesystem::path& file : lint_inputs(kNetlistDir)) {
    const LintReport lint = lint_report(file);
    EXPECT_TRUE(lint.codes.empty()) << file;
    EXPECT_EQ(lint.errors, 0.0) << file;
    EXPECT_EQ(lint.warnings, 0.0) << file;
    ++(file.extension() == ".mlc" ? configs : circuits);
  }
  EXPECT_GE(circuits, 2u);
  EXPECT_GE(configs, 1u);

  const RunResult paper = run_sim("--lint --bits 4");
  EXPECT_EQ(paper.exit_code, 0) << paper.output;
  EXPECT_NE(paper.output.find("0 error(s), 0 warning(s)"), std::string::npos)
      << paper.output;
}

// tools/netlists/rc_lowpass.cir: a 1 kOhm / 1 nF low-pass (tau = 1 us) driven
// by a 1 V step. The netlist modes' numbers below are pinned to its solve.
constexpr const char* kRcLowpass =
    "* first-order RC low-pass step response\n"
    "VIN in 0 PULSE(0 1 0 1n 1n 1m)\n"
    "R1 in out 1k\n"
    "C1 out 0 1n\n"
    ".end\n";

// Writes `text` to a temp netlist and runs `arguments` on it.
RunResult run_netlist(const std::string& name, const std::string& text,
                      const std::string& arguments) {
  const std::string path = temp_path(name);
  std::ofstream(path) << text;
  RunResult result = run_sim(arguments + " '" + path + "'");
  std::remove(path.c_str());
  return result;
}

TEST(CliContract, OpModeSolvesTheNetlistDcPoint) {
  const RunResult result = run_netlist("oxmlc_cli_rc_op.cir", kRcLowpass, "");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("| out  |    0.000000 |"), std::string::npos)
      << result.output;
}

TEST(CliContract, TranModeReportsStepsIterationsAndFinalValue) {
  const RunResult result =
      run_netlist("oxmlc_cli_rc_tran.cir", kRcLowpass, "--tran 3u --probe out");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("transient: 1007 steps to 3 us (2015 Newton iterations)"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("| out   |        0.949970 |"), std::string::npos)
      << result.output;
}

TEST(CliContract, AcModeReportsGainAndPhase) {
  const RunResult result =
      run_netlist("oxmlc_cli_rc_ac.cir", kRcLowpass, "--ac VIN 1k 1g --probe out");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("|  100 kHz | out   |    -1.45 |       -32.1 |"),
            std::string::npos)
      << result.output;
}

TEST(CliContract, NolintCodesReachTheSolveTimePrecheck) {
  // fa/fb float (OXA001). `.nolint` silences it under --lint, and must
  // silence the precheck that the solve runs too.
  const RunResult result = run_netlist("oxmlc_cli_nolint.cir",
                                       ".nolint OXA001\n"
                                       "V1 in 0 DC 1\n"
                                       "R1 in 0 1k\n"
                                       "C1 fa fb 1p\n"
                                       "R2 fa fb 1k\n",
                                       "");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output.find("OXA001"), std::string::npos) << result.output;
}

TEST(CliContract, UnknownSimdBackendExits1NamingTheAcceptedValues) {
  // OXMLC_SIMD picks a pack backend. A value it does not know — "off" named
  // the retired scalar engine — must fail the run instead of silently
  // running a backend nobody asked for.
  const char* previous = std::getenv("OXMLC_SIMD");
  const std::string saved = previous != nullptr ? previous : "";
  ASSERT_EQ(setenv("OXMLC_SIMD", "off", 1), 0);
  const RunResult result = run_sim("--qlc --trials 1");
  if (previous != nullptr) {
    setenv("OXMLC_SIMD", saved.c_str(), 1);
  } else {
    unsetenv("OXMLC_SIMD");
  }
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("OXMLC_SIMD=off"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("accepted values: auto, avx2, scalar"), std::string::npos)
      << result.output;
}

#else  // !OXMLC_SIM_PATH

TEST(CliContract, SkippedWithoutTheSimBinary) {
  GTEST_SKIP() << "oxmlc_sim not built (OXMLC_BUILD_EXAMPLES=OFF)";
}

#endif

}  // namespace
}  // namespace oxmlc
