// Host-time benchmark of the OxMLC library.
//
// Three workloads, driven only through public library calls:
//
//   replay_1m      memsys::replay_trace on the default 1M-request synthetic
//                  trace, RRAM_ISSCC_2012 geometry, every fidelity tier on;
//   ecc_frontier4  ecc::run_ecc_study at 4 bits/cell on the
//                  scrub x verify x rotation grid of bench_ecc_frontier;
//   bank_program   rows of 1024-lane words through oxram::CellBatch::run:
//                  SET, then terminated RESET to row-rotated QLC references.
//
// A run first makes an untimed warm-up pass on tiny inputs and builds the
// workload's inputs several times (set-up), then makes one pass at 1 and one
// at N worker threads and fills the rest of --seconds with more passes.
// Every pass checks its invariants; every pass must produce bit-identical
// simulated output. With --trace 1 the run instead makes one untraced pass at
// 1 thread, one traced pass at 1 thread (spans around each public call, plus
// before/after deltas of the obs::registry() counters and timers), and one
// untraced pass at N threads, and reports the per-layer breakdown.
//
//   oxmlc_perfbench --workload NAME [--seed N] [--seconds S] [--threads N]
//                   [--trace 0|1] [--tiny] [--spans-out FILE]
//
// Progress goes to stdout as text; the last stdout line is one JSON object
// with the raw samples, checks, simulated figures and per-layer metrics.
// perfbench/run.py turns it into the benchmark result.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ecc/explorer.hpp"
#include "memsys/replay.hpp"
#include "mlc/levels.hpp"
#include "mlc/mc_study.hpp"
#include "numeric/simd.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/fast_cell.hpp"
#include "oxram/params.hpp"
#include "util/provenance.hpp"
#include "util/rng.hpp"

namespace {

using namespace oxmlc;
using obs::Json;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent of each public call in a traced pass.
// Kept in memory; written out once the run ends.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;  // since the tracer was created
    double end_s = 0.0;
  };

  void begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back({std::move(name), parent, seconds_since(origin_), 0.0});
  }

  void end() {
    spans_[static_cast<std::size_t>(open_.back())].end_s = seconds_since(origin_);
    open_.pop_back();
  }

  // Duration minus the part of it the span's children cover (children of one
  // span run one after another, so their durations add).
  double self_seconds(std::size_t index) const {
    double self = spans_[index].end_s - spans_[index].start_s;
    for (const Span& span : spans_) {
      if (span.parent == static_cast<int>(index)) self -= span.end_s - span.start_s;
    }
    return self;
  }

  // Inclusive seconds over every span with this name (0 when none ran).
  double total_seconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.name == name) total += span.end_s - span.start_s;
    }
    return total;
  }

  const std::vector<Span>& spans() const { return spans_; }

  Json to_json() const {
    Json array = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Json span = Json::object();
      span.set("name", spans_[i].name);
      span.set("parent", spans_[i].parent);
      span.set("start_s", spans_[i].start_s);
      span.set("end_s", spans_[i].end_s);
      span.set("self_s", self_seconds(i));
      array.push_back(std::move(span));
    }
    return array;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for its lifetime; does nothing in an untraced pass.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(std::move(name));
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = false;
};

struct PassOutput {
  double wall_s = 0.0;               // the public calls only
  std::string digest;                // bit-identity fingerprint; empty = none
  std::vector<Check> checks;         // invariants of this pass
  Json simulated = Json::object();   // figures compared against the reference
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  // Builds the inputs; timed as set-up and repeated, so it must be idempotent.
  virtual void setup() = 0;
  // One pass on `threads` workers; spans are recorded when `tracer` is set.
  virtual PassOutput run(std::size_t threads, Tracer* tracer) = 0;
};

// The seed drives the fidelity tiers' device and program/read sampling; the
// trace itself is the default one. The full-MNA tier's work follows the
// payloads of its 20 sampled writes, and across trace seeds that moved the
// 1-thread wall by about 7 % (interquartile range), more than the benchmark's
// bound, while the sampling seed leaves it fixed.
class ReplayWorkload final : public Workload {
 public:
  ReplayWorkload(std::uint64_t seed, bool tiny) : fidelity_seed_(seed) {
    if (tiny) trace_options_.requests = 20'000;
  }

  void setup() override {
    trace_ = memsys::synthesize_trace(geometry_, trace_options_);
  }

  PassOutput run(std::size_t threads, Tracer* tracer) override {
    if (tracer != nullptr) return run_decomposed(threads, *tracer);
    memsys::ReplayOptions options;
    options.geometry = geometry_;
    options.threads = threads;
    options.fidelity.threads = threads;
    options.fidelity.seed = fidelity_seed_;
    const auto start = Clock::now();
    memsys::MemsysReport report = memsys::replay_trace(trace_, options);
    PassOutput out;
    out.wall_s = seconds_since(start);
    out.checks = {
        {"replay.all_requests_retired", report.requests_retired == trace_.size()},
        {"replay.word_tier_pulses_terminated", report.word_tier.unterminated == 0},
        {"replay.mna_samples_terminated",
         report.mna_tier.terminated == report.mna_tier.samples},
    };
    out.digest = memsys::to_json(report).dump();
    out.simulated.set("sustained_mb_s", report.sustained_mb_s);
    out.simulated.set("row_hit_rate", report.row_hit_rate);
    out.simulated.set("latency_p99_ns", report.latency.p99_ns);
    out.simulated.set("mna_mean_t_terminate_s", report.mna_tier.mean_t_terminate_s);
    out.simulated.set("word_decode_errors", static_cast<double>(report.word_tier.decode_errors));
    out.simulated.set("requests_retired", static_cast<double>(report.requests_retired));
    reference_ = std::move(report);
    return out;
  }

 private:
  // replay_trace split into its public pieces on the same trace: the
  // scheduler run, the fidelity-engine construction, then the word, MNA and
  // witness tiers on the samples is_word_sample / is_mna_sample select. The
  // pieces must reproduce the last untraced report exactly.
  PassOutput run_decomposed(std::size_t threads, Tracer& tracer) {
    memsys::FidelityConfig config;
    config.threads = threads;
    config.seed = fidelity_seed_;
    memsys::MemsysReport report;
    if (reference_) report = *reference_;
    const auto start = Clock::now();
    {
      const SpanScope root(&tracer, "replay_1m");
      memsys::ScheduleResult schedule;
      {
        const SpanScope span(&tracer, "memsys.schedule");
        memsys::CommandScheduler scheduler(geometry_);
        schedule = scheduler.run(trace_);
      }
      std::optional<memsys::FidelityEngine> fidelity;
      {
        const SpanScope span(&tracer, "memsys.fidelity_init");
        fidelity.emplace(geometry_, config);
      }
      std::vector<memsys::WordSample> word_samples;
      std::vector<memsys::WordSample> mna_samples;
      std::size_t write_ordinal = 0;
      for (std::size_t i = 0; i < trace_.size(); ++i) {
        if (!trace_[i].is_write) continue;
        if (fidelity->is_word_sample(write_ordinal)) word_samples.push_back({i, trace_[i].data});
        if (fidelity->is_mna_sample(write_ordinal)) mna_samples.push_back({i, trace_[i].data});
        ++write_ordinal;
      }
      {
        const SpanScope span(&tracer, "memsys.word_tier");
        report.word_tier = fidelity->run_word_tier(word_samples);
      }
      {
        const SpanScope span(&tracer, "memsys.mna_tier");
        report.mna_tier = fidelity->run_mna_tier(mna_samples);
      }
      {
        const SpanScope span(&tracer, "memsys.witness");
        report.witness = fidelity->run_witness(word_samples);
      }
      report.requests_retired = schedule.requests_retired;
      report.reads = schedule.reads;
      report.writes = schedule.writes;
      report.scrub_commands = schedule.scrub_commands;
      report.wear_rotations = schedule.wear_rotations;
      report.queue_stall_cycles = schedule.queue_stall_cycles;
      report.total_cycles = schedule.total_cycles;
      report.banks = schedule.banks;
    }
    PassOutput out;
    out.wall_s = seconds_since(start);
    out.checks = {{"replay.traced_pieces_match_replay_trace",
                   reference_.has_value() &&
                       memsys::to_json(report).dump() == memsys::to_json(*reference_).dump()}};
    return out;
  }

  std::uint64_t fidelity_seed_;
  memsys::GeometryConfig geometry_ = memsys::GeometryConfig::rram_isscc_2012();
  memsys::SyntheticTraceOptions trace_options_;
  std::vector<memsys::TraceRequest> trace_;
  std::optional<memsys::MemsysReport> reference_;  // last untraced report
};

class EccWorkload final : public Workload {
 public:
  // Trials per policy point, sized so one 1-thread pass takes about 10 s.
  static constexpr std::size_t kTrials = 2;

  // The bench_ecc_frontier grid, listed heaviest first: scrubbed, verified,
  // unrotated (most worn) words cost the most reprograms. The pool hands out
  // the 16 (point x trial) tasks in grid order, so the costly ones start
  // first and the N-thread pass ends on short tasks.
  explicit EccWorkload(bool tiny) {
    config_.bits = {4};
    config_.scrub_periods_s = {1e6, 0.0};
    config_.verify = {true, false};
    config_.rotations = {0, 2000};
    config_.trials = kTrials;
    config_.probe_requests = 2048;
    if (tiny) {  // one scrubbed, verified point: still reaches every layer
      config_.scrub_periods_s = {1e6};
      config_.verify = {true};
      config_.rotations = {2000};
      config_.trials = 1;
    }
  }

  // The calibrated 4-bit operating point the study derives its allocation
  // from. run_ecc_study builds it again internally, so work a later change
  // moves into a shared calibration shows up here.
  void setup() override {
    study_ = mlc::paper_mc_study(config_.bits.front(), config_.mc_trials);
  }

  PassOutput run(std::size_t threads, Tracer* tracer) override {
    ecc::EccStudyConfig config = config_;
    config.threads = threads;
    const auto start = Clock::now();
    std::optional<ecc::EccReport> report;
    {
      const SpanScope root(tracer, "ecc_frontier4");
      const SpanScope span(tracer, "ecc.study");
      report = ecc::run_ecc_study(config);
    }
    PassOutput out;
    out.wall_s = seconds_since(start);
    out.checks = {
        {"ecc.uber_monotone", ecc::uber_monotone(*report)},
        {"ecc.frontier_non_empty", !report->frontier.empty()},
        {"ecc.setup_levels", study_.qlc.allocation.count() == (std::size_t{1} << 4)},
    };
    out.digest = ecc::to_json(*report).dump();

    // Word-count-weighted corrected fraction per code, as bench_ecc_frontier
    // gates it, and the reprograms the verify/scrub policies cost.
    std::vector<std::string> codes;
    for (const ecc::CodeOutcome& code : report->points.front().codes) codes.push_back(code.code);
    std::uint64_t reprograms = 0;
    std::uint64_t cells = 0;
    for (const ecc::PolicyPointOutcome& point : report->points) {
      reprograms += point.verify_reprograms + point.scrub_reprograms;
      cells += point.cells_programmed;
    }
    for (const std::string& name : codes) {
      std::uint64_t errored = 0;
      std::uint64_t failed = 0;
      for (const ecc::PolicyPointOutcome& point : report->points) {
        for (const ecc::CodeOutcome& code : point.codes) {
          if (code.code != name) continue;
          errored += code.errored_words;
          failed += code.failed_words;
        }
      }
      out.simulated.set("corrected_word_fraction." + name,
                        errored == 0 ? 1.0
                                     : 1.0 - static_cast<double>(failed) /
                                                 static_cast<double>(errored));
    }
    out.simulated.set("reprograms_per_cell",
                      static_cast<double>(reprograms) / static_cast<double>(cells));
    out.simulated.set("frontier_size", static_cast<double>(report->frontier.size()));
    for (std::size_t i = 0; i < report->frontier.size(); ++i) {
      const ecc::FrontierPoint& point = report->frontier[i];
      const std::string key = "frontier." + std::to_string(i) + ".";
      out.simulated.set(key + "code", point.code);
      out.simulated.set(key + "total_overhead", point.total_overhead);
      out.simulated.set(key + "uber", point.uber);
    }
    return out;
  }

 private:
  ecc::EccStudyConfig config_;
  mlc::McStudyConfig study_;
};

class BankWorkload final : public Workload {
 public:
  static constexpr std::size_t kRows = 8;
  static constexpr std::size_t kLanes = 1024;

  BankWorkload(std::uint64_t seed, bool tiny)
      : seed_(seed),
        rows_(tiny ? 1 : kRows),
        lanes_(tiny ? 64 : kLanes),
        allocation_(mlc::LevelAllocation::iso_delta_i(4, mlc::kPaperIrefMin,
                                                      mlc::kPaperIrefMax)) {
    // Plateau sized like the QLC flow so the deepest reference terminates
    // instead of timing out (as in bench_batch_throughput).
    reset_.pulse.width = 12e-6;
  }

  // Device sampling: D2D parameters and a C2C rate factor per cell.
  void setup() override {
    const oxram::OxramParams nominal;
    const oxram::OxramVariability variability;
    const oxram::StackConfig stack;
    Rng seeder(seed_);
    cells_.clear();
    cells_.reserve(rows_ * lanes_);
    for (std::size_t i = 0; i < rows_ * lanes_; ++i) {
      Rng rng = seeder.split();
      oxram::FastCell cell =
          oxram::FastCell::formed_lrs(oxram::sample_device(nominal, variability, rng), stack);
      cell.set_rate_factor(oxram::sample_cycle_rate_factor(variability, rng));
      cells_.push_back(std::move(cell));
    }
  }

  PassOutput run(std::size_t threads, Tracer* tracer) override {
    std::vector<oxram::FastCell> cells = cells_;  // every pass starts fresh
    oxram::BatchRunOptions options;
    options.threads = threads;
    std::vector<oxram::OperationResult> set_results;
    std::vector<oxram::OperationResult> reset_results;
    set_results.reserve(cells.size());
    reset_results.reserve(cells.size());
    const auto start = Clock::now();
    {
      const SpanScope root(tracer, "bank_program");
      oxram::CellBatch batch;
      for (std::size_t row = 0; row < rows_; ++row) {
        oxram::FastCell* word = cells.data() + row * lanes_;
        batch.clear();
        for (std::size_t lane = 0; lane < lanes_; ++lane) batch.add_set(word[lane], set_);
        {
          const SpanScope span(tracer, "oxram.batch_set");
          for (oxram::OperationResult& r : batch.run(options)) set_results.push_back(std::move(r));
        }
        batch.clear();
        for (std::size_t lane = 0; lane < lanes_; ++lane) {
          oxram::ResetOperation reset = reset_;
          reset.iref = allocation_.levels[(lane + row) % allocation_.count()].iref;
          batch.add_reset(word[lane], reset);
        }
        {
          const SpanScope span(tracer, "oxram.batch_reset");
          for (oxram::OperationResult& r : batch.run(options)) {
            reset_results.push_back(std::move(r));
          }
        }
      }
    }
    PassOutput out;
    out.wall_s = seconds_since(start);

    std::size_t terminated = 0;
    double latency = 0.0;
    double energy = 0.0;
    for (const oxram::OperationResult& r : reset_results) {
      if (r.terminated) ++terminated;
      latency += r.t_terminate;
      energy += r.energy_source;
    }
    const double n = static_cast<double>(reset_results.size());
    out.checks = {{"bank.every_lane_terminated", terminated == cells.size()}};
    out.simulated.set("reset_latency_mean_s", latency / n);
    out.simulated.set("reset_energy_mean_j", energy / n);
    out.simulated.set("reset_terminated", static_cast<double>(terminated));

    // Per-cell OperationResult fields as raw bits, SET then RESET.
    std::vector<std::uint64_t> bits;
    const auto append = [&bits](double v) {
      std::uint64_t b = 0;
      std::memcpy(&b, &v, sizeof b);
      bits.push_back(b);
    };
    for (const auto* results : {&set_results, &reset_results}) {
      for (const oxram::OperationResult& r : *results) {
        append(r.terminated ? 1.0 : 0.0);
        append(r.t_terminate);
        append(r.t_end);
        append(r.final_gap);
        append(r.energy_source);
        append(r.energy_cell);
      }
    }
    out.digest.assign(reinterpret_cast<const char*>(bits.data()), bits.size() * sizeof bits[0]);
    return out;
  }

 private:
  std::uint64_t seed_;
  std::size_t rows_;
  std::size_t lanes_;
  mlc::LevelAllocation allocation_;
  oxram::SetOperation set_;
  oxram::ResetOperation reset_;
  std::vector<oxram::FastCell> cells_;
};

// Default workload seeds: the library default for the fidelity tiers, a fixed
// one for the bank. --seed 0 selects them; any other value mixes it in, so
// each workload sees unrelated inputs per seed.
constexpr std::uint64_t kBankSeed = 0xBA4CB0A7ull;

std::uint64_t workload_seed(std::uint64_t base, std::uint64_t seed) {
  return seed == 0 ? base : base ^ (0x9E3779B97F4A7C15ull * seed);
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool tiny) {
  if (name == "replay_1m") {
    return std::make_unique<ReplayWorkload>(
        workload_seed(memsys::FidelityConfig{}.seed, seed), tiny);
  }
  if (name == "ecc_frontier4") {
    // The study runs at the library's default seed whatever --seed says: the
    // study seed decides how slowly its few hardest cells program, and over
    // ten study seeds the 1-thread time moved by about 16 % (interquartile
    // range), more than a bound can absorb.
    return std::make_unique<EccWorkload>(tiny);
  }
  if (name == "bank_program") {
    return std::make_unique<BankWorkload>(workload_seed(kBankSeed, seed), tiny);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Per-layer metrics from registry deltas and spans.
// ---------------------------------------------------------------------------

struct RegistryDelta {
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;

  std::uint64_t counter(const std::string& name) const {
    return value(after.counters, name) - value(before.counters, name);
  }
  double timer_s(const std::string& name) const {
    return static_cast<double>(timer(after, name).total_ns - timer(before, name).total_ns) *
           1e-9;
  }
  std::uint64_t timer_count(const std::string& name) const {
    return timer(after, name).count - timer(before, name).count;
  }

 private:
  static std::uint64_t value(const std::vector<obs::MetricsSnapshot::CounterSample>& samples,
                             const std::string& name) {
    for (const auto& sample : samples) {
      if (sample.name == name) return sample.value;
    }
    return 0;  // registered lazily: absent until the layer first runs
  }
  static obs::Timer::Snapshot timer(const obs::MetricsSnapshot& snapshot,
                                    const std::string& name) {
    for (const auto& sample : snapshot.timers) {
      if (sample.name == name) return sample.stats;
    }
    return {};
  }
};

double gauge_or_zero(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& sample : snapshot.gauges) {
    if (sample.name == name) return sample.value;
  }
  return 0.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Per-layer host time is reported as a share of the traced pass: a layer a
// workload never reaches reads 0, and a time that reads the same on every run
// would look like a constant. The seconds are in the printed span table and
// the spans file; trace.total_s gives the scale.
Json layer_metrics(const RegistryDelta& d, const Tracer& tracer, double t1_wall,
                   double tn_wall, double traced_wall, double parallel_efficiency) {
  const auto c = [&d](const char* name) { return static_cast<double>(d.counter(name)); };
  const auto share = [traced_wall](double seconds) { return ratio(seconds, traced_wall); };
  const auto span = [&tracer, &share](const char* name) {
    return share(tracer.total_seconds(name));
  };
  Json layers = Json::object();
  const auto add = [&layers](const char* name, double value, const char* unit) {
    Json metric = Json::object();
    metric.set("value", value);
    metric.set("unit", unit);
    layers.set(name, std::move(metric));
  };
  add("util.thread_speedup", ratio(t1_wall, tn_wall), "ratio");
  add("schur.parallel_efficiency", parallel_efficiency, "ratio");
  add("memsys.schedule_share", span("memsys.schedule"), "ratio");
  add("memsys.fidelity_init_share", span("memsys.fidelity_init"), "ratio");
  add("memsys.word_tier_share", span("memsys.word_tier"), "ratio");
  add("memsys.mna_tier_share", span("memsys.mna_tier"), "ratio");
  add("memsys.witness_share", span("memsys.witness"), "ratio");
  add("transient.steps_accepted", c("transient.steps.accepted"), "count");
  add("transient.run_share", share(d.timer_s("transient.run_time")), "ratio");
  add("newton.iterations_per_step", ratio(c("newton.iterations"), c("transient.steps.accepted")),
      "ratio");
  add("newton.assemblies_per_iteration", ratio(c("newton.assemblies"), c("newton.iterations")),
      "ratio");
  add("newton.halvings_per_iteration", ratio(c("newton.damping_halvings"), c("newton.iterations")),
      "ratio");
  add("newton.solve_share", share(d.timer_s("newton.solve_time")), "ratio");
  add("schur.factorizations", c("schur.factorizations"), "count");
  add("lu.refactorize_fallbacks",
      c("sparse_lu.refactorize_fallbacks") + c("sparse_lu.schur_block_refactorize_fallbacks"),
      "count");
  const double program_s = d.timer_s("mlc.program.time");
  const double program_calls = static_cast<double>(d.timer_count("mlc.program.time"));
  add("mlc.program_share", share(program_s), "ratio");
  add("mlc.program_calls", program_calls, "count");
  add("mlc.cells_per_program_call", ratio(c("mlc.program.operations"), program_calls), "ratio");
  // CellBatch::run is reached from the study only through program_word, so
  // its time is already inside mlc.program.
  const double study_s = tracer.total_seconds("ecc.study");
  add("ecc.study_share", share(study_s), "ratio");
  add("ecc.residual_share", study_s == 0.0 ? 0.0 : share(study_s - program_s), "ratio");
  add("ecc.reprograms_per_cell",
      ratio(c("ecc.verify_reprograms") + c("ecc.scrub_reprograms"), c("ecc.cells_programmed")),
      "ratio");
  add("oxram.batch_set_share", span("oxram.batch_set"), "ratio");
  add("oxram.batch_reset_share", span("oxram.batch_reset"), "ratio");
  add("batch.run_share", share(d.timer_s("batch.run_time")), "ratio");
  add("batch.steps_per_lane", ratio(c("batch.steps"), c("batch.lanes")), "ratio");
  add("batch.fallbacks_per_lane", ratio(c("batch.simd_fallback_solves"), c("batch.lanes")),
      "ratio");
  add("batch.retired_fraction", ratio(c("batch.lanes_retired"), c("batch.lanes")), "ratio");
  add("trace.total_s", traced_wall, "s");
  add("trace.overhead_s", traced_wall - t1_wall, "s");
  return layers;
}

// ---------------------------------------------------------------------------
// Command line and the run itself.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::size_t threads = 4;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value, &used);
    } else if (flag == "--threads") {
      options.threads = std::stoul(value, &used);
    } else if (flag == "--trace") {
      options.trace = std::stoul(value, &used) != 0;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != 0 && used != value.size()) {
      throw std::invalid_argument("bad value '" + value + "' for " + flag);
    }
  }
  if (options.workload.empty()) throw std::invalid_argument("--workload is required");
  if (options.threads == 0) throw std::invalid_argument("--threads must be >= 1");
  return options;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

Json numbers(const std::vector<double>& values) {
  Json array = Json::array();
  for (const double v : values) array.push_back(v);
  return array;
}

int run(const Options& options) {
  const std::unique_ptr<Workload> workload =
      make_workload(options.workload, options.seed, options.tiny);
  const std::size_t n = options.threads;
  std::cout << "workload " << options.workload << " seed " << options.seed << " threads 1/"
            << n << (options.tiny ? " (tiny inputs)" : "") << "\n";

  // Untimed warm-up pass on tiny inputs, so the first timed pass does not pay
  // the process's one-time costs (per-thread allocator arenas, first-touch
  // pages, lazily registered metrics); without it the first N-thread
  // bank_program pass took nearly twice as long as the rest.
  {
    const std::unique_ptr<Workload> warm = make_workload(options.workload, options.seed, true);
    warm->setup();
    warm->run(n, nullptr);
  }

  // Set-up is repeated (at least 5 times and 0.5 s) so its median is steady.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < 5 || (setup_total < 0.5 && setup_s.size() < 1000)) {
    const auto start = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(start));
    setup_total += setup_s.back();
  }

  std::vector<PassOutput> passes;
  std::vector<double> t1;
  std::vector<double> tn;
  const auto pass = [&](std::size_t threads, Tracer* tracer) {
    passes.push_back(workload->run(threads, tracer));
    std::cout << "  pass t" << threads << (tracer ? " traced" : "") << ": "
              << passes.back().wall_s << " s\n";
    return passes.back().wall_s;
  };

  Json layers;
  Tracer tracer;
  if (!options.trace) {
    // One pass of each kind and a second t1 pass, then fill --seconds with
    // the kind measured for less time so far, when its mean time fits in what
    // is left, else the other. Balancing time rather than pass counts gives
    // the shorter kind more samples, so one slow pass moves its median less:
    // ecc_frontier4 (t1 about 3.4x tN) gets two t1 and about five tN passes.
    const auto start = Clock::now();
    t1.push_back(pass(1, nullptr));
    tn.push_back(pass(n, nullptr));
    const auto sum = [](const std::vector<double>& v) {
      double total = 0.0;
      for (const double x : v) total += x;
      return total;
    };
    const auto mean = [&sum](const std::vector<double>& v) {
      return sum(v) / static_cast<double>(v.size());
    };
    for (;;) {
      const double left = options.seconds - seconds_since(start);
      const bool t1_fits = mean(t1) <= left;
      const bool tn_fits = mean(tn) <= left;
      const bool want_t1 = t1.size() < 2 || sum(t1) <= sum(tn);
      if (t1_fits && (want_t1 || !tn_fits)) {
        t1.push_back(pass(1, nullptr));
      } else if (tn_fits) {
        tn.push_back(pass(n, nullptr));
      } else {
        break;
      }
    }
  } else {
    t1.push_back(pass(1, nullptr));
    RegistryDelta delta;
    delta.before = obs::registry().snapshot();
    const double traced_wall = pass(1, &tracer);
    delta.after = obs::registry().snapshot();
    tn.push_back(pass(n, nullptr));
    const double efficiency =
        gauge_or_zero(obs::registry().snapshot(), "schur.parallel_efficiency");
    layers = layer_metrics(delta, tracer, t1.front(), tn.front(), traced_wall, efficiency);

    std::cout << "  spans (inclusive / self / share of untraced t1 wall):\n";
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const Tracer::Span& span = tracer.spans()[i];
      const double inclusive = span.end_s - span.start_s;
      std::cout << "    " << (span.parent < 0 ? "" : "  ") << span.name << "  " << inclusive
                << " s / " << tracer.self_seconds(i) << " s / "
                << 100.0 * inclusive / t1.front() << " %\n";
    }
    if (!options.spans_out.empty()) {
      std::ofstream file(options.spans_out);
      file << tracer.to_json().dump(2) << "\n";
      if (!file) throw std::runtime_error("cannot write " + options.spans_out);
    }
  }

  // Invariants of every pass, then the determinism contract: every pass that
  // fingerprints its output must match the first t1 pass bit for bit.
  Json checks = Json::array();
  const auto add_check = [&checks](const std::string& name, bool ok) {
    Json check = Json::object();
    check.set("name", name);
    check.set("ok", ok);
    checks.push_back(std::move(check));
  };
  for (const PassOutput& p : passes) {
    for (const Check& check : p.checks) add_check(check.name, check.ok);
  }
  for (std::size_t i = 1; i < passes.size(); ++i) {
    if (passes[i].digest.empty()) continue;
    add_check("determinism.bit_identical_to_first_t1_pass",
              passes[i].digest == passes.front().digest);
  }

  Json result = Json::object();
  result.set("workload", options.workload);
  result.set("seed", static_cast<double>(options.seed));
  result.set("tiny", options.tiny);
  result.set("threads_n", static_cast<double>(n));
  result.set("nproc", static_cast<double>(available_cpus()));
  result.set("simd_backend", num::simd::backend_name(num::simd::active_backend()));
  result.set("provenance", Json::parse(util::provenance_json()));
  result.set("setup_s", numbers(setup_s));
  result.set("wall_t1_s", numbers(t1));
  result.set("wall_tn_s", numbers(tn));
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("checks", std::move(checks));
  result.set("simulated", passes.front().simulated);
  if (options.trace) result.set("layers", layers);
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "oxmlc_perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "oxmlc_perfbench: " << e.what() << "\n";
    return 1;
  }
}
