// ECC policy frontier: the storage-product reliability claim end to end.
//
// Runs a reduced fixed-seed policy study through ecc/explorer.hpp — the
// catalog code ladder (none / BCH t=1..3 / SECDED) against the retention +
// read-disturb + endurance channel at 4 bits/cell, sweeping scrub x verify x
// rotation — and reports the UBER-vs-overhead frontier plus the per-code
// corrected-word fractions.
//
// Writes ecc_frontier.csv (+ telemetry sidecar) and BENCH_ecc.json for the
// compare_bench.py CI gate. The gated metrics (corrected_word_fraction per
// ladder code, uber_monotone) are SIMULATED quantities — pure functions of
// (seed, config) — so the gate is immune to runner speed; study wall time is
// reported but not gated.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ecc/explorer.hpp"
#include "util/table.hpp"

namespace {

// The ladder codes whose corrected-word fraction the CI gate pins. `none_63`
// corrects nothing by construction, so it is reported but not gated.
const std::vector<std::string> kGatedCodes = {"bch_63_57_t1", "bch_63_51_t2",
                                              "bch_63_45_t3", "secded_72_64"};

// Word-count-weighted corrected fraction of one code across every policy
// point — one scalar per ladder rung that moves only if decode behavior or
// the channel statistics change.
double corrected_fraction(const oxmlc::ecc::EccReport& report, const std::string& code) {
  std::uint64_t errored = 0;
  std::uint64_t failed = 0;
  for (const auto& point : report.points) {
    for (const auto& outcome : point.codes) {
      if (outcome.code != code) continue;
      errored += outcome.errored_words;
      failed += outcome.failed_words;
    }
  }
  if (errored == 0) return 1.0;
  return 1.0 - static_cast<double>(failed) / static_cast<double>(errored);
}

int run(int argc, char** argv) {
  using namespace oxmlc;

  ecc::EccStudyConfig config;
  config.bits = {4};
  config.scrub_periods_s = {0.0, 1e6};
  config.verify = {false, true};
  config.rotations = {0, 2000};
  config.trials = bench::size_flag(argc, argv, "--trials", 8, 1);
  config.probe_requests = 2048;

  bench::print_header(
      "ECC frontier", "UBER-vs-overhead policy frontier over the retention channel",
      "(storage-product claim: the code ladder none/t=1/t=2/t=3/SECDED must "
      "trade overhead for UBER monotonically under every scrub/verify/"
      "rotation policy — " + std::to_string(config.trials) + " words/point)");

  const auto start = bench::now();
  const ecc::EccReport report = ecc::run_ecc_study(config);
  const double elapsed = bench::seconds_since(start);
  const bool monotone = ecc::uber_monotone(report);

  Table table({"bits", "code", "scrub (s)", "verify", "rotate", "overhead", "uber"});
  for (const auto& point : report.frontier) {
    table.add_row({std::to_string(point.bits), point.code,
                   format_scaled(point.scrub_period_s, 1.0, 0),
                   point.verify ? "on" : "off",
                   std::to_string(point.rotate_every_writes),
                   format_scaled(point.total_overhead, 1.0, 4),
                   format_scaled(point.uber, 1.0, 6)});
  }
  table.print(std::cout);
  std::cout << "\n  policy points: " << report.points.size()
            << ", frontier size: " << report.frontier.size()
            << ", uber monotone in code strength: " << (monotone ? "yes" : "NO")
            << ", wall: " << format_scaled(elapsed, 1.0, 2) << " s\n";

  Table csv({"bits", "code", "scrub_period_s", "verify", "rotate_every_writes",
             "total_overhead", "uber", "usable_bits_per_cell"});
  for (const auto& point : report.frontier) {
    csv.add_row({std::to_string(point.bits), point.code,
                 std::to_string(point.scrub_period_s),
                 std::to_string(point.verify ? 1 : 0),
                 std::to_string(point.rotate_every_writes),
                 std::to_string(point.total_overhead), std::to_string(point.uber),
                 std::to_string(point.usable_bits_per_cell)});
  }
  bench::save_csv(csv, "ecc_frontier.csv");

  obs::Json json = bench::bench_json("ecc_frontier");
  json.set("trials", static_cast<double>(config.trials));
  json.set("seed", static_cast<double>(report.seed));
  json.set("policy_points", static_cast<double>(report.points.size()));
  json.set("frontier_points", static_cast<double>(report.frontier.size()));
  json.set("wall_s", elapsed);
  json.set("uber_monotone", monotone ? 1.0 : 0.0);
  for (const std::string& code : kGatedCodes) {
    json.set("corrected_word_fraction@" + code, corrected_fraction(report, code));
  }
  bench::save_json(json, "BENCH_ecc.json");

  // Invariants: the monotone ladder is the PR's acceptance claim, and an
  // empty frontier means the Pareto reduction itself broke — both are logic
  // regressions, not slow-runner noise.
  if (!monotone) {
    std::cerr << "ERROR: uber not monotone non-increasing in code strength\n";
    return 1;
  }
  if (report.frontier.empty()) {
    std::cerr << "ERROR: empty policy frontier\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}
