// oxmlc_sim — command-line circuit simulator over the oxmlc MNA engine.
//
//   oxmlc_sim netlist.cir                        DC operating point
//   oxmlc_sim --tran 5u netlist.cir              transient, all node voltages
//   oxmlc_sim --tran 5u --dt-max 1n --probe out --probe bl
//             --csv waves.csv netlist.cir        selected probes + CSV dump
//   oxmlc_sim --plot out --tran 5u netlist.cir   ASCII waveform of one node
//   oxmlc_sim --qlc --trials 50 --metrics m.json QLC program run + telemetry
//   oxmlc_sim --retention --bits 3 --trials 20
//             --seed 7 --report r.json           retention sweep (drift + verify
//                                                comparison + scrub demo) as
//                                                oxmlc.retention.v1 JSON
//   oxmlc_sim --ecc --bits 4 --trials 8
//             --seed 7 --report ecc.json          ECC + scrub + wear-leveling
//                                                policy explorer (UBER vs
//                                                overhead frontier) as
//                                                oxmlc.ecc.v1 JSON
//   oxmlc_sim --trace requests.trc               memory-system trace replay
//             --geometry sys.memcfg              (banks/channels scheduler +
//             --report replay.json               tiered-fidelity physics) as
//                                                oxmlc.memsys.v1 JSON
//   oxmlc_sim --trace-synth 1000000 --threads 8  synthetic-workload replay
//   oxmlc_sim --lint netlist.cir                 static analysis only (no solve)
//   oxmlc_sim --lint placement.mlc               MLC configuration lint (OXC0xx)
//   oxmlc_sim --lint --bits 4                    lint the built-in paper placement
//   oxmlc_sim --lint --json netlist.cir          ... as oxmlc.lint.v2 JSON
//
// Every mode accepts `--metrics out.json`: after the analysis the global
// observability registry (Newton/DC/transient solver counters and timers,
// MLC program statistics, MC throughput) is exported as JSON.
//
// The netlist dialect is documented in src/spice/netlist.hpp (R/C/L, V/I with
// PULSE/PWL/SIN, E/G, D, M NMOS/PMOS, S switches, X OXRAM cells, .param
// expressions).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "array/write_path.hpp"
#include "devices/sources.hpp"
#include "ecc/explorer.hpp"
#include "memsys/replay.hpp"
#include "mlc/analyze/config_lint.hpp"
#include "mlc/controller.hpp"
#include "mlc/mc_study.hpp"
#include "mlc/retention.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "spice/ac.hpp"
#include "spice/analyze/analyzer.hpp"
#include "spice/dc.hpp"
#include "spice/netlist.hpp"
#include "spice/transient.hpp"
#include "util/ascii_plot.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace oxmlc;

struct CliOptions {
  std::string netlist_path;
  bool transient = false;
  bool ac = false;
  bool lint = false;
  bool json = false;
  bool qlc = false;
  bool retention = false;
  bool ecc = false;
  bool bits_set = false;
  bool trials_set = false;
  std::string trace_path;
  std::size_t trace_synth = 0;   // synthesize this many requests instead
  std::string trace_out;         // write the synthesized trace here
  std::string geometry_path;     // .memcfg; empty = built-in ISSCC-2012 shape
  std::size_t threads = 0;       // pool workers (0 = auto)
  std::size_t qlc_bits = 4;
  std::size_t qlc_trials = 50;
  bool seed_set = false;
  std::uint64_t seed = 0;
  std::string report_path;
  double f_start = 1e3;
  double f_stop = 1e9;
  std::string ac_source;  // V source to excite with AC 1V
  double t_stop = 1e-6;
  double dt_max = 0.0;  // 0 = auto (t_stop / 1000)
  std::vector<std::string> probes;
  std::vector<std::string> plots;
  std::string csv_path;
  std::string metrics_path;
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: oxmlc_sim [options] [netlist.cir]\n"
               "  (no options)        DC operating point\n"
               "  --tran <t_stop>     transient analysis to t_stop (SI suffixes ok)\n"
               "  --ac <src> <f1> <f2>  AC sweep f1..f2 exciting V source <src>\n"
               "  --dt-max <dt>       max transient step (default t_stop/1000)\n"
               "  --probe <node>      record this node (repeatable; default: all)\n"
               "  --plot <node>       ASCII-plot this node's waveform (repeatable)\n"
               "  --csv <file>        write the recorded waveforms as CSV\n"
               "  --lint              static analysis only, exit 1 on errors. For a\n"
               "                      .cir netlist: parse + circuit analyzer (OXA0xx).\n"
               "                      For a .mlc file: MLC configuration lint (OXC0xx).\n"
               "                      With no file: lint the built-in paper placement\n"
               "                      at --bits (default 4)\n"
               "  --json              --lint output as oxmlc.lint.v2 JSON\n"
               "  --qlc               QLC program run (no netlist): MC program of\n"
               "                      every level + one transistor-level terminated RST\n"
               "  --retention         retention sweep (no netlist): drift MC over decades\n"
               "                      of time, verify-off vs relaxation-aware verify,\n"
               "                      plus an array scrub demonstration\n"
               "  --ecc               ECC + scrub + wear-leveling policy explorer (no\n"
               "                      netlist): sweeps the code ladder x scrub interval x\n"
               "                      verify x rotation over the retention channel and\n"
               "                      prints the UBER-vs-overhead frontier\n"
               "  --trace <file>      memory-system replay (no netlist): gem5-style timed\n"
               "                      read/write requests through the banks/channels\n"
               "                      scheduler with tiered-fidelity device physics\n"
               "  --trace-synth <n>   replay a deterministic synthetic trace of n requests\n"
               "                      instead of reading a file (--seed selects the stream)\n"
               "  --trace-out <file>  write the synthesized trace (use with --trace-synth)\n"
               "  --geometry <file>   trace mode: .memcfg geometry/timing (default: the\n"
               "                      built-in NVMain RRAM ISSCC-2012 4-ch x 4-bank shape)\n"
               "  --threads <n>       trace/ecc/qlc/retention mode: worker threads (0 = auto;\n"
               "                      reports are bit-identical at any thread count)\n"
               "  --bits <n>          QLC/retention mode: bits per cell (default 4);\n"
               "                      ecc mode: restrict the sweep to one bits/cell value\n"
               "                      (default: 4, 5 and 6)\n"
               "  --trials <n>        QLC/retention mode: MC trials per level (default 50);\n"
               "                      ecc mode: reference words per policy point (default 8)\n"
               "  --seed <n>          QLC/retention/ecc/trace mode: Monte-Carlo base seed\n"
               "  --report <file>     retention mode: the oxmlc.retention.v1 JSON;\n"
               "                      ecc mode: the oxmlc.ecc.v1 JSON;\n"
               "                      trace mode: the oxmlc.memsys.v1 JSON\n"
               "  --metrics <file>    export solver/MC telemetry as JSON\n";
  std::exit(2);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + arg);
      return argv[++i];
    };
    // Numeric flag values go through util/parse: "--trials 5x", "--seed abc",
    // "--trials -1" and "--tran inf" exit with usage instead of running.
    auto next_count = [&]() -> std::uint64_t {
      const std::string value = next();
      const std::optional<std::uint64_t> parsed = util::parse_unsigned(value);
      if (!parsed) usage(arg + " expects an unsigned integer, got '" + value + "'");
      return *parsed;
    };
    auto next_value = [&]() -> double {
      const std::string value = next();
      const std::optional<double> parsed = util::parse_si(value);
      if (!parsed) usage(arg + " expects a finite number, got '" + value + "'");
      return *parsed;
    };
    if (arg == "--tran") {
      options.transient = true;
      options.t_stop = next_value();
    } else if (arg == "--ac") {
      options.ac = true;
      options.ac_source = next();
      options.f_start = next_value();
      options.f_stop = next_value();
    } else if (arg == "--dt-max") {
      options.dt_max = next_value();
    } else if (arg == "--probe") {
      options.probes.push_back(next());
    } else if (arg == "--plot") {
      options.plots.push_back(next());
    } else if (arg == "--csv") {
      options.csv_path = next();
    } else if (arg == "--metrics") {
      options.metrics_path = next();
    } else if (arg == "--lint") {
      options.lint = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--qlc") {
      options.qlc = true;
    } else if (arg == "--retention") {
      options.retention = true;
    } else if (arg == "--ecc") {
      options.ecc = true;
    } else if (arg == "--trace") {
      options.trace_path = next();
    } else if (arg == "--trace-synth") {
      options.trace_synth = next_count();
    } else if (arg == "--trace-out") {
      options.trace_out = next();
    } else if (arg == "--geometry") {
      options.geometry_path = next();
    } else if (arg == "--threads") {
      options.threads = next_count();
    } else if (arg == "--bits") {
      options.qlc_bits = next_count();
      options.bits_set = true;
    } else if (arg == "--trials") {
      options.qlc_trials = next_count();
      options.trials_set = true;
    } else if (arg == "--seed") {
      options.seed = next_count();
      options.seed_set = true;
    } else if (arg == "--report") {
      options.report_path = next();
    } else if (arg == "-h" || arg == "--help") {
      usage();
    } else if (!arg.empty() && arg[0] == '-') {
      usage("unknown option " + arg);
    } else if (options.netlist_path.empty()) {
      options.netlist_path = arg;
    } else {
      usage("multiple netlist files given");
    }
  }
  const bool trace_mode = !options.trace_path.empty() || options.trace_synth > 0;
  if (!options.trace_path.empty() && options.trace_synth > 0) {
    usage("--trace and --trace-synth are mutually exclusive");
  }
  if (!options.trace_out.empty() && options.trace_synth == 0) {
    usage("--trace-out requires --trace-synth");
  }
  if (options.netlist_path.empty() && !options.qlc && !options.retention &&
      !options.ecc && !options.lint && !trace_mode) {
    usage("no netlist file given");
  }
  if (options.qlc || options.retention || options.ecc ||
      (options.lint && options.netlist_path.empty())) {
    if (options.qlc_bits < 1 || options.qlc_bits > 6) usage("--bits must be in 1..6");
  }
  if (options.qlc || options.retention || options.ecc) {
    if (options.trials_set && options.qlc_trials < 1) usage("--trials must be positive");
  }
  return options;
}

// Writes a `--report` document. An unwritable path throws, and main reports
// it, naming the path, with exit 1.
void write_report(const std::string& path, const obs::Json& report) {
  obs::write_file(path, report.dump(2) + "\n");
  std::cout << "[report written: " << path << "]\n";
}

// QLC program run: the paper's §4.2 flow end-to-end, instrumented. First a
// Monte-Carlo program of every level through the fast path (termination
// mismatch + C2C sampling -> per-level pulse/latency statistics), then one
// transistor-level terminated RESET through the full Fig. 7b write path so
// the Newton and transient-stepper counters reflect real MNA work.
int run_qlc(const CliOptions& options) {
  std::cout << "QLC program run: " << options.qlc_bits << " bits/cell, "
            << options.qlc_trials << " trials/level\n";

  mlc::McStudyConfig study =
      mlc::paper_mc_study(options.qlc_bits, options.qlc_trials);
  if (options.seed_set) study.mc.seed = options.seed;
  study.mc.threads = options.threads;
  const std::vector<mlc::LevelDistribution> levels = mlc::run_level_study(study);

  Table t({"level", "iref (uA)", "median R (kOhm)", "median latency (us)",
           "median energy (pJ)"});
  for (const auto& dist : levels) {
    const BoxPlotSummary r = box_plot_summary(dist.resistance);
    const BoxPlotSummary lat = box_plot_summary(dist.latency);
    const BoxPlotSummary en = box_plot_summary(dist.energy);
    t.add_row({std::to_string(dist.level.value),
               format_scaled(dist.level.iref, 1e-6, 3),
               format_scaled(r.median, 1e3, 4), format_scaled(lat.median, 1e-6, 3),
               format_scaled(en.median, 1e-12, 3)});
  }
  t.print(std::cout);

  // Transistor-level terminated RESET at the shallowest level's reference
  // (largest IrefR -> earliest crossing -> fastest full-circuit run).
  array::WritePathConfig wp;
  wp.iref = study.qlc.allocation.levels.front().iref;
  wp.pulse_width = 3.0e-6;
  wp.t_stop = 3.2e-6;
  array::WritePath path(wp);
  const array::WritePathResult wp_result = path.run();
  std::cout << "full-circuit RST @ IrefR=" << format_si(*wp.iref, "A", 3) << ": "
            << (wp_result.terminated
                    ? "terminated at " + format_si(wp_result.t_terminate, "s", 4)
                    : "not terminated")
            << ", " << wp_result.transient.steps_accepted << " steps, "
            << wp_result.transient.newton_iterations << " Newton iterations\n";
  return 0;
}

// Retention sweep: (1) the Monte-Carlo drift study of mlc/retention.hpp,
// verify-off vs relaxation-aware verify over the same programmed words, so
// the recovered-window fraction is directly comparable; (2) an 8x8 array bake +
// scrub demonstration driving MemoryController end-to-end
// (this is what populates the reliability.cells_scrubbed counter the CI
// smoke asserts). `--report` writes the whole thing as oxmlc.retention.v1.
int run_retention(const CliOptions& options) {
  const std::uint64_t seed = options.seed_set ? options.seed : mlc::McOptions{}.seed;
  std::cout << "Retention sweep: " << options.qlc_bits << " bits/cell, "
            << options.qlc_trials << " trials/level, seed " << seed << "\n";

  mlc::RetentionConfig config =
      mlc::RetentionConfig::paper_default(options.qlc_bits, options.qlc_trials);
  config.study.mc.seed = seed;
  config.study.mc.threads = options.threads;
  const mlc::RetentionComparison comparison = mlc::run_retention_comparison(config);

  std::cout << "as-programmed worst-case dR: "
            << format_scaled(comparison.verify_off.initial_margins.worst_case_margin, 1e3, 4)
            << " kOhm\n";
  Table t({"t (s)", "worst dR off (kOhm)", "BER off", "worst dR on (kOhm)", "BER on"});
  for (std::size_t k = 0; k < comparison.verify_off.points.size(); ++k) {
    const mlc::RetentionPoint& off = comparison.verify_off.points[k];
    const mlc::RetentionPoint& on = comparison.verify_on.points[k];
    t.add_row({format_si(off.t, "s", 3), format_scaled(off.margins.worst_case_margin, 1e3, 4),
               format_scaled(off.ber.ber, 1.0, 4),
               format_scaled(on.margins.worst_case_margin, 1e3, 4),
               format_scaled(on.ber.ber, 1.0, 4)});
  }
  t.print(std::cout);
  // Quote the recovery where the fast relaxation dominates the loss (~1 s);
  // the slow retention component is a per-cell activation no verify filters,
  // so the late decades converge toward the unverified branch again.
  std::size_t fast_idx = comparison.verify_off.points.size() - 1;
  for (std::size_t k = 0; k < comparison.verify_off.points.size(); ++k) {
    if (comparison.verify_off.points[k].t <= 1.0 + 1e-12) fast_idx = k;
  }
  const double recovered = mlc::recovered_window_fraction(comparison, fast_idx);
  std::cout << "verify re-programmed " << comparison.verify_on.verify_reprogrammed
            << " cells (" << comparison.verify_on.verify_unrecovered
            << " unrecovered); recovered fraction of relaxation-lost window at "
            << format_si(comparison.verify_off.points[fast_idx].t, "s", 3) << ": "
            << format_scaled(recovered, 1.0, 3) << "\n";

  // Array-level bake + scrub demo on the paper's 8x8 test array, two verify
  // passes after each write.
  const mlc::QlcProgrammer programmer(config.study.qlc);
  mlc::ReliabilityConfig rel;
  rel.seed = seed ^ 0x0DD5EEDULL;
  mlc::MemoryController controller(programmer, 8, 8, seed ^ 0xA11A5EEDULL, rel, 2);
  Rng pattern_rng(seed ^ 0x7A77E24ULL);
  const std::size_t level_count = config.study.qlc.allocation.count();
  for (std::size_t row = 0; row < controller.word_count(); ++row) {
    std::vector<std::size_t> levels(controller.cells_per_word());
    for (std::size_t& level : levels) level = pattern_rng.uniform_index(level_count);
    controller.write_word_levels(row, levels);
  }
  const double bake_s = 1e6;
  controller.advance(bake_s);
  const mlc::ScrubStats scrub = controller.scrub_all();
  std::cout << "scrub demo (8x8, " << format_si(bake_s, "s", 3) << " bake): "
            << scrub.cells_scrubbed << "/" << scrub.cells_checked
            << " cells re-terminated, " << format_si(scrub.energy, "J", 3)
            << " scrub energy\n";

  if (!options.report_path.empty()) {
    obs::Json report = mlc::to_json(comparison);
    obs::Json fast = obs::Json::object();
    fast.set("time_s", obs::Json(comparison.verify_off.points[fast_idx].t));
    fast.set("recovered_fraction", obs::Json(recovered));
    report.set("recovery_relaxation", std::move(fast));
    obs::Json demo = obs::Json::object();
    demo.set("rows", obs::Json(static_cast<double>(controller.word_count())));
    demo.set("cols", obs::Json(static_cast<double>(controller.cells_per_word())));
    demo.set("bake_s", obs::Json(bake_s));
    demo.set("cells_checked", obs::Json(static_cast<double>(scrub.cells_checked)));
    demo.set("cells_scrubbed", obs::Json(static_cast<double>(scrub.cells_scrubbed)));
    demo.set("scrub_energy_j", obs::Json(scrub.energy));
    report.set("scrub_demo", std::move(demo));
    write_report(options.report_path, report);
  }
  return 0;
}

// ECC + scrub + wear-leveling policy explorer: the full policy grid of
// ecc/explorer.hpp — code ladder x scrub interval x verify x start-gap
// rotation at each bits/cell target — reduced to the UBER-vs-overhead Pareto
// frontier. `--bits` restricts the sweep to one bits/cell value, `--trials`
// sets the reference words per policy point, and `--report` writes the whole
// study as oxmlc.ecc.v1.
int run_ecc(const CliOptions& options) {
  ecc::EccStudyConfig config;
  if (options.bits_set) config.bits = {options.qlc_bits};
  if (options.trials_set) config.trials = options.qlc_trials;
  if (options.seed_set) config.seed = options.seed;
  config.threads = options.threads;

  std::cout << "ECC policy explorer: bits/cell {";
  for (std::size_t i = 0; i < config.bits.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << config.bits[i];
  }
  std::cout << "}, " << config.trials << " words/point, seed " << config.seed << "\n";

  const ecc::EccReport report = ecc::run_ecc_study(config);
  const bool monotone = ecc::uber_monotone(report);

  Table t({"bits", "code", "scrub (s)", "verify", "rotate", "overhead", "uber",
           "usable bits/cell"});
  for (const auto& point : report.frontier) {
    t.add_row({std::to_string(point.bits), point.code,
               format_si(point.scrub_period_s, "s", 3), point.verify ? "on" : "off",
               std::to_string(point.rotate_every_writes),
               format_scaled(point.total_overhead, 1.0, 4),
               format_scaled(point.uber, 1.0, 6),
               format_scaled(point.usable_bits_per_cell, 1.0, 3)});
  }
  t.print(std::cout);
  std::cout << report.points.size() << " policy points, frontier of "
            << report.frontier.size() << " choices; uber monotone in code strength: "
            << (monotone ? "yes" : "NO") << "\n";
  if (!monotone) {
    std::cerr << "error: uber not monotone non-increasing along the code ladder\n";
    return 1;
  }

  if (!options.report_path.empty()) {
    write_report(options.report_path, ecc::to_json(report));
  }
  return 0;
}

// Memory-system trace replay: the timed request stream through the
// banks/channels command scheduler (behavioral tier) with the deterministic
// word/MNA/witness fidelity samples evaluated through the calibrated device
// models. `--report` writes the oxmlc.memsys.v1 document.
int run_trace(const CliOptions& options) {
  memsys::ReplayOptions replay;
  if (!options.geometry_path.empty()) {
    if (!std::ifstream(options.geometry_path).good()) {
      usage("cannot open geometry config: " + options.geometry_path);
    }
    replay.geometry = memsys::load_memsys_config(options.geometry_path);
  }
  replay.threads = options.threads;

  std::vector<memsys::TraceRequest> trace;
  if (options.trace_synth > 0) {
    memsys::SyntheticTraceOptions synth;
    synth.requests = options.trace_synth;
    if (options.seed_set) synth.seed = options.seed;
    trace = memsys::synthesize_trace(replay.geometry, synth);
    if (!options.trace_out.empty()) {
      memsys::save_trace(options.trace_out, trace);
      std::cout << "[trace written: " << options.trace_out << "]\n";
    }
  } else {
    if (!std::ifstream(options.trace_path).good()) {
      usage("cannot open trace: " + options.trace_path);
    }
    trace = memsys::load_trace(options.trace_path);
  }
  std::cout << "trace replay: " << trace.size() << " requests through "
            << replay.geometry.channels << " channels x "
            << replay.geometry.banks_per_channel << " banks ("
            << replay.geometry.rows_per_bank << " rows x "
            << replay.geometry.words_per_row << " words, "
            << replay.geometry.bits_per_cell << " bits/cell)\n";

  const memsys::MemsysReport report = memsys::replay_trace(trace, replay);

  Table t({"quantity", "value"});
  t.add_row({"requests retired", std::to_string(report.requests_retired)});
  t.add_row({"reads / writes", std::to_string(report.reads) + " / " +
                                   std::to_string(report.writes)});
  t.add_row({"simulated time", format_si(report.simulated_seconds, "s", 4)});
  t.add_row({"sustained bandwidth", format_scaled(report.sustained_mb_s, 1.0, 4) + " MB/s"});
  t.add_row({"row hit rate", format_scaled(report.row_hit_rate, 1.0, 4)});
  t.add_row({"mean bank occupancy", format_scaled(report.mean_bank_occupancy, 1.0, 4)});
  t.add_row({"latency p50/p99/p999", format_si(report.latency.p50_ns * 1e-9, "s", 4) + " / " +
                                         format_si(report.latency.p99_ns * 1e-9, "s", 4) +
                                         " / " +
                                         format_si(report.latency.p999_ns * 1e-9, "s", 4)});
  t.add_row({"scrub commands", std::to_string(report.scrub_commands)});
  t.add_row({"wear rotations", std::to_string(report.wear_rotations)});
  t.add_row({"word-tier samples", std::to_string(report.word_tier.samples) + " (" +
                                      std::to_string(report.word_tier.decode_errors) +
                                      " decode errors)"});
  t.add_row({"MNA-tier samples", std::to_string(report.mna_tier.samples) + " (" +
                                     std::to_string(report.mna_tier.terminated) +
                                     " terminated)"});
  t.add_row({"witness scrubbed", std::to_string(report.witness.cells_scrubbed) + "/" +
                                     std::to_string(report.witness.cells_checked) +
                                     " cells"});
  t.add_row({"wall time", format_si(report.wall_seconds, "s", 3)});
  t.print(std::cout);

  if (!options.report_path.empty()) {
    write_report(options.report_path, memsys::to_json(report));
  }
  return 0;
}

// Shared tail of both lint modes: render the report (text or oxmlc.lint.v2
// JSON with the "domain" discriminator) and map findings to exit status.
int emit_lint_report(const CliOptions& options,
                     const spice::analyze::DiagnosticReport& report,
                     const std::string& source_name, const char* domain) {
  if (options.json) {
    obs::Json j = report.to_json();
    j.set("domain", domain);
    j.set("source", source_name);
    std::cout << j.dump(2) << "\n";
  } else {
    std::cout << source_name << ":\n" << report.format();
  }
  return report.has_errors() ? 1 : 0;
}

// --lint on a .mlc file (or with no file at all: the built-in paper placement
// at --bits). Parse failures surface as a single OXC000 diagnostic so the
// report shape stays uniform with the circuit path.
int run_config_lint(const CliOptions& options, const std::string* config_text) {
  spice::analyze::DiagnosticReport report;
  try {
    const mlc::analyze::MlcLintInput input =
        config_text != nullptr
            ? mlc::analyze::parse_mlc_config(*config_text)
            : mlc::analyze::MlcLintInput::paper_default(options.qlc_bits);
    report = mlc::analyze::lint_mlc_config(input);
  } catch (const InvalidArgumentError& e) {
    spice::analyze::Diagnostic d;
    d.severity = spice::analyze::Severity::kError;
    d.code = spice::analyze::codes::kConfigParse;
    d.message = e.what();
    d.fix_hint = "see the .mlc dialect in src/mlc/analyze/config_lint.hpp";
    report.add(std::move(d));
  }
  const std::string name =
      config_text != nullptr
          ? options.netlist_path
          : "<paper placement, bits=" + std::to_string(options.qlc_bits) + ">";
  return emit_lint_report(options, report, name, "mlc");
}

// --lint: parse + static analysis, no solve. Exit status 0 when clean or
// warnings only, 1 on error-severity findings (including parse failures, which
// surface as a single OXP0xx diagnostic so the output shape stays uniform).
int run_lint(const CliOptions& options, const std::string& netlist_text) {
  spice::analyze::DiagnosticReport report;
  bool parsed_ok = false;
  spice::ParsedNetlist parsed;
  try {
    parsed = spice::parse_netlist(netlist_text);
    parsed_ok = true;
  } catch (const spice::NetlistError& e) {
    spice::analyze::Diagnostic d;
    d.severity = spice::analyze::Severity::kError;
    d.code = e.code();
    d.message = e.what();
    report.add(std::move(d));
  }

  if (parsed_ok) {
    spice::analyze::AnalyzerOptions analyzer;
    analyzer.suppress = parsed.suppressed;
    report = spice::analyze::analyze_circuit(parsed.circuit, analyzer);
    // Parser-side findings (OXA007) were already filtered through .nolint.
    for (const auto& d : parsed.lint.diagnostics()) report.add(d);
  }

  return emit_lint_report(options, report, options.netlist_path, "circuit");
}

int run_op(spice::ParsedNetlist& parsed) {
  spice::MnaSystem system(parsed.circuit);
  system.analyzer_options().suppress = parsed.suppressed;
  const spice::DcResult result = spice::solve_dc(system);
  if (!result.converged) {
    std::cerr << "DC operating point did not converge\n";
    return 1;
  }
  std::cout << "DC operating point (" << result.strategy << ", "
            << result.newton_iterations << " Newton iterations)\n";
  Table t({"node", "voltage (V)"});
  for (std::size_t n = 0; n < parsed.circuit.node_count(); ++n) {
    t.add_row({parsed.circuit.node_name(static_cast<int>(n)),
               format_scaled(result.solution[n], 1.0, 6)});
  }
  t.print(std::cout);
  return 0;
}

int run_tran(spice::ParsedNetlist& parsed, const CliOptions& options) {
  // Default probe set: every named node.
  std::vector<std::string> probe_names = options.probes;
  if (probe_names.empty()) {
    for (std::size_t n = 0; n < parsed.circuit.node_count(); ++n) {
      probe_names.push_back(parsed.circuit.node_name(static_cast<int>(n)));
    }
  }
  std::vector<spice::Probe> probes;
  for (const auto& name : probe_names) {
    const int idx = parsed.circuit.node_index(name);  // throws on bad names
    probes.push_back({name, [idx](double, std::span<const double> x) {
                        return idx < 0 ? 0.0 : x[static_cast<std::size_t>(idx)];
                      }});
  }

  spice::MnaSystem system(parsed.circuit);
  system.analyzer_options().suppress = parsed.suppressed;
  spice::TransientOptions tran;
  tran.t_stop = options.t_stop;
  tran.dt_max = options.dt_max > 0.0 ? options.dt_max : options.t_stop / 1000.0;
  const spice::TransientResult result = spice::run_transient(system, tran, probes);

  std::cout << "transient: " << result.steps_accepted << " steps to "
            << format_si(options.t_stop, "s", 3) << " ("
            << result.newton_iterations << " Newton iterations)\n";

  // Final values.
  Table t({"probe", "final value (V)"});
  for (std::size_t p = 0; p < probes.size(); ++p) {
    t.add_row({probes[p].name, format_scaled(result.probe_values[p].back(), 1.0, 6)});
  }
  t.print(std::cout);

  for (const auto& name : options.plots) {
    for (std::size_t p = 0; p < probes.size(); ++p) {
      if (probes[p].name != name) continue;
      Series s{{name, '*'}, result.times, result.probe_values[p]};
      PlotOptions plot;
      plot.title = "v(" + name + ")";
      plot.x_label = "t (s)";
      plot.y_label = "V";
      plot_series(std::cout, std::vector<Series>{s}, plot);
    }
  }

  if (!options.csv_path.empty()) {
    std::vector<std::string> header = {"t_s"};
    for (const auto& probe : probes) header.push_back("v(" + probe.name + ")");
    Table csv(header);
    for (std::size_t k = 0; k < result.times.size(); ++k) {
      std::vector<std::string> row = {std::to_string(result.times[k])};
      for (std::size_t p = 0; p < probes.size(); ++p) {
        row.push_back(std::to_string(result.probe_values[p][k]));
      }
      csv.add_row(std::move(row));
    }
    csv.write_csv_file(options.csv_path);
    std::cout << "[csv written: " << options.csv_path << "]\n";
  }
  return 0;
}

int run_ac_cli(spice::ParsedNetlist& parsed, const CliOptions& options) {
  auto* source =
      dynamic_cast<dev::VoltageSource*>(parsed.circuit.find_device(options.ac_source));
  if (source == nullptr) {
    std::cerr << "AC source not found (must be a V card): " << options.ac_source << "\n";
    return 1;
  }
  source->set_ac(1.0);

  spice::MnaSystem system(parsed.circuit);
  system.analyzer_options().suppress = parsed.suppressed;
  spice::AcOptions ac;
  ac.f_start = options.f_start;
  ac.f_stop = options.f_stop;
  const spice::AcResult result = spice::run_ac(system, ac);
  if (!result.converged) {
    std::cerr << "AC analysis failed (operating point did not converge)\n";
    return 1;
  }

  const std::vector<std::string> probe_names =
      options.probes.empty()
          ? std::vector<std::string>{parsed.circuit.node_name(0)}
          : options.probes;
  Table t({"f (Hz)", "probe", "|H| (dB)", "phase (deg)"});
  for (const auto& name : probe_names) {
    const int idx = parsed.circuit.node_index(name);
    for (std::size_t k = 0; k < result.frequencies.size(); k += 10) {
      t.add_row({format_si(result.frequencies[k], "Hz", 3), name,
                 format_scaled(result.magnitude_db(k, idx), 1.0, 2),
                 format_scaled(result.phase_deg(k, idx), 1.0, 1)});
    }
    for (const auto& plot_name : options.plots) {
      if (plot_name != name) continue;
      Series s{{"|v(" + name + ")|", '*'}, {}, {}};
      for (std::size_t k = 0; k < result.frequencies.size(); ++k) {
        s.x.push_back(result.frequencies[k]);
        s.y.push_back(std::max(result.magnitude(k, idx), 1e-12));
      }
      PlotOptions plot;
      plot.title = "|v(" + name + ")| vs frequency";
      plot.x_scale = AxisScale::kLog10;
      plot.y_scale = AxisScale::kLog10;
      plot_series(std::cout, std::vector<Series>{s}, plot);
    }
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions options = parse_cli(argc, argv);

    const auto finish = [&](int status) {
      if (!options.metrics_path.empty()) {
        obs::write_metrics_json(options.metrics_path);
        std::cout << "[metrics written: " << options.metrics_path << "]\n";
      }
      return status;
    };

    if (!options.trace_path.empty() || options.trace_synth > 0) {
      return finish(run_trace(options));
    }
    if (options.ecc) return finish(run_ecc(options));
    if (options.retention) return finish(run_retention(options));
    if (options.qlc) return finish(run_qlc(options));
    if (options.lint && options.netlist_path.empty()) {
      return finish(run_config_lint(options, nullptr));
    }

    std::ifstream file(options.netlist_path);
    if (!file.good()) {
      usage("cannot open netlist: " + options.netlist_path);
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    if (options.lint) {
      const std::string text = buffer.str();
      if (options.netlist_path.ends_with(".mlc")) {
        return finish(run_config_lint(options, &text));
      }
      return finish(run_lint(options, text));
    }
    spice::ParsedNetlist parsed = spice::parse_netlist(buffer.str());
    if (!parsed.title.empty()) std::cout << "*" << parsed.title << "\n";

    if (options.ac) return finish(run_ac_cli(parsed, options));
    return finish(options.transient ? run_tran(parsed, options) : run_op(parsed));
  } catch (const oxmlc::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Last-resort net: a CLI tool must never die on an uncaught exception.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
