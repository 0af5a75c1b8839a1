// Shared plumbing for the benchmark harness binaries.
//
// Every bench regenerates one table or figure of the paper: it prints (a) a
// header identifying the experiment, (b) the paper's reported values, (c) the
// values measured on this build, (d) an ASCII rendering of the figure, and
// writes (e) a machine-readable CSV under bench_results/ for replotting.
// Absolute agreement is not the claim (our substrate is a from-scratch
// simulator, not the authors' Eldo + foundry PDK); the *shape* — who wins, by
// what factor, where trends bend — is asserted by the test suite and recorded
// in EXPERIMENTS.md.
#pragma once

#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "util/parse.hpp"
#include "util/provenance.hpp"
#include "util/table.hpp"

namespace oxmlc::bench {

// The one benchmark clock. steady_clock only: wall clocks
// (system_clock/high_resolution_clock on some stdlibs) can step under NTP
// adjustment mid-measurement, which turns into phantom throughput
// regressions in the CI perf gate.
inline std::chrono::steady_clock::time_point now() {
  return std::chrono::steady_clock::now();
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(now() - start).count();
}

inline void print_header(const std::string& experiment_id, const std::string& title,
                         const std::string& paper_summary) {
  std::cout << "==============================================================\n"
            << " " << experiment_id << ": " << title << "\n"
            << "==============================================================\n"
            << " paper reports: " << paper_summary << "\n"
            << "--------------------------------------------------------------\n";
}

// Resolves the CSV output path, creating bench_results/ next to the cwd.
inline std::string csv_path(const std::string& name) {
  std::filesystem::create_directories("bench_results");
  return "bench_results/" + name;
}

// A BENCH_*.json document: `"bench": bench`, then the `"provenance"` object
// every one must carry, so scripts/compare_bench.py can tell a real
// regression from numbers measured under a different compiler or flag set.
inline obs::Json bench_json(const std::string& bench) {
  obs::Json doc = obs::Json::object();
  doc.set("bench", bench);
  doc.set("provenance", obs::Json::parse(util::provenance_json()));
  return doc;
}

// Writes `doc` to bench_results/<name>.
inline void save_json(const obs::Json& doc, const std::string& name) {
  const std::string path = csv_path(name);
  obs::write_file(path, doc.dump(2) + "\n");
  std::cout << " [json written: " << path << "]\n";
}

inline void save_csv(const Table& table, const std::string& name) {
  const std::string path = csv_path(name);
  table.write_csv_file(path);
  std::cout << " [csv written: " << path << "]\n";

  // Telemetry sidecar: alongside every CSV artifact, dump the observability
  // registry (solver counters, MC throughput, program statistics) so bench
  // runs are machine-comparable across commits — the baseline every perf PR
  // proves itself against. `<name>.csv -> <name>.metrics.json`.
  std::string metrics_name = name;
  const std::size_t dot = metrics_name.rfind(".csv");
  if (dot != std::string::npos && dot == metrics_name.size() - 4) {
    metrics_name.resize(dot);
  }
  const std::string metrics_path = csv_path(metrics_name + ".metrics.json");
  obs::write_metrics_json(metrics_path);
  std::cout << " [metrics written: " << metrics_path << "]\n";
}

// `<flag> N` (`--trials`, `--rows`, ...) through util::parse_unsigned, or
// `fallback` when absent; a missing or malformed N, or one below `min`, exits
// 2 naming the flag.
inline std::size_t size_flag(int argc, char** argv, const std::string& flag,
                             std::size_t fallback, std::size_t min = 0) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != flag) continue;
    const auto value = util::parse_unsigned(i + 1 < argc ? argv[i + 1] : "");
    if (value && *value >= min) return *value;
    std::cerr << "error: " << flag << " expects an integer >= " << min << "\n";
    std::exit(2);
  }
  return fallback;
}

// The one guard every bench main runs its body through: a library error
// (an unwritable bench_results/, a failed solve) prints `error: <what()>`
// and exits 1 instead of aborting. Flag errors exit 2 before any work
// (size_flag).
template <typename Body>
int guard(Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace oxmlc::bench
