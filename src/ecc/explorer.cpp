#include "ecc/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "ecc/code.hpp"
#include "mc/runner.hpp"
#include "memsys/scheduler.hpp"
#include "memsys/trace.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"
#include "util/provenance.hpp"
#include "util/stats.hpp"

namespace oxmlc::ecc {
namespace {

struct EccMetrics {
  obs::Counter& studies = obs::registry().counter("ecc.studies");
  obs::Counter& policy_points = obs::registry().counter("ecc.policy_points");
  obs::Counter& words_simulated = obs::registry().counter("ecc.words_simulated");
  obs::Counter& cells_programmed = obs::registry().counter("ecc.cells_programmed");
  obs::Counter& words_decoded = obs::registry().counter("ecc.words_decoded");
  obs::Counter& bits_corrected = obs::registry().counter("ecc.bits_corrected");
  obs::Counter& words_uncorrectable = obs::registry().counter("ecc.words_uncorrectable");
  obs::Counter& words_miscorrected = obs::registry().counter("ecc.words_miscorrected");
  obs::Counter& verify_reprograms = obs::registry().counter("ecc.verify_reprograms");
  obs::Counter& scrub_reprograms = obs::registry().counter("ecc.scrub_reprograms");
  obs::Timer& study_time = obs::registry().timer("ecc.study_time");

  static EccMetrics& get() {
    static EccMetrics metrics;
    return metrics;
  }
};

// Per-point trial seed, mixed like mlc::study_level_seed so points get
// unrelated (seed, trial) planes.
std::uint64_t point_seed(std::uint64_t base, std::size_t point) {
  return base ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(point) + 1));
}

struct PolicyGridPoint {
  std::size_t bits_index = 0;  // into per-bits study configs
  std::size_t bits = 0;
  double scrub_period_s = 0.0;
  bool verify = false;
  std::uint64_t rotate = 0;
};

// Analytic scrub bank duty: one t_scrub maintenance slot per device word per
// period, words_per_bank of them per bank. The swept periods are retention
// decades (>= 1e12 memory cycles), so this is computed — no replayable trace
// could sample it.
double scrub_duty(const memsys::GeometryConfig& geometry, double period_s) {
  if (period_s <= 0.0) return 0.0;
  const double words = static_cast<double>(geometry.rows_per_bank) *
                       static_cast<double>(geometry.words_per_row);
  const double slot_s =
      static_cast<double>(geometry.timing.t_scrub) * geometry.timing.cycle_s();
  return words * slot_s / period_s;
}

SchedulerProbe run_probe(const EccStudyConfig& config, const PolicyGridPoint& point) {
  SchedulerProbe probe;
  if (config.probe_requests == 0) return probe;

  memsys::GeometryConfig geometry = config.geometry;
  geometry.bits_per_cell = point.bits;
  // Keep one-byte-aligned accesses across 4/5/6 bits/cell.
  geometry.cells_per_word = 8;
  geometry.rotate_every_writes = point.rotate;

  memsys::SyntheticTraceOptions trace_options;
  trace_options.requests = config.probe_requests;
  // The retention-scale scrub period compresses onto the trace span with the
  // epoch count preserved: the probe shows the *relative* scheduling cost of
  // the same number of maintenance slots, not the absolute retention clock.
  geometry.scrub_interval_cycles = 0;
  if (point.scrub_period_s > 0.0) {
    const double epochs = kReadBackHorizon / point.scrub_period_s;
    const double span = static_cast<double>(trace_options.requests) *
                        static_cast<double>(memsys::kTraceMeanGapCycles);
    geometry.scrub_interval_cycles =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(span / epochs));
  }
  geometry.validate();

  const std::vector<memsys::TraceRequest> trace =
      memsys::synthesize_trace(geometry, trace_options);
  memsys::CommandScheduler scheduler(geometry);
  const memsys::ScheduleResult result = scheduler.run(trace);

  std::uint64_t hits = 0, misses = 0, conflicts = 0;
  for (const memsys::BankStats& bank : result.banks) {
    hits += bank.row_hits;
    misses += bank.row_misses;
    conflicts += bank.row_conflicts;
  }
  const std::uint64_t total = hits + misses + conflicts;
  probe.ran = true;
  probe.row_hit_rate = total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  std::vector<double> latencies(result.latency_cycles.begin(), result.latency_cycles.end());
  std::sort(latencies.begin(), latencies.end());
  probe.p99_ns = latencies.empty()
                     ? 0.0
                     : quantile(latencies, 0.99) * geometry.timing.cycle_s() * 1e9;
  probe.scrub_commands = result.scrub_commands;
  probe.wear_rotations = result.wear_rotations;
  return probe;
}

unsigned hamming(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  unsigned distance = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    distance += (a[i] != 0) != (b[i] != 0) ? 1u : 0u;
  }
  return distance;
}

}  // namespace

EccReport run_ecc_study(const EccStudyConfig& config) {
  OXMLC_CHECK(!config.bits.empty(), "run_ecc_study: need at least one bits/cell value");
  OXMLC_CHECK(!config.scrub_periods_s.empty(), "run_ecc_study: need scrub periods");
  OXMLC_CHECK(!config.verify.empty(), "run_ecc_study: need verify settings");
  OXMLC_CHECK(!config.rotations.empty(), "run_ecc_study: need rotation settings");
  OXMLC_CHECK(config.trials > 0, "run_ecc_study: need at least one trial");

  EccMetrics& metrics = EccMetrics::get();
  metrics.studies.add();
  obs::ScopedTimer timer(metrics.study_time);

  const std::vector<std::unique_ptr<Code>> catalog = default_catalog();
  std::size_t max_n = 0, max_k = 0;
  for (const auto& code : catalog) {
    max_n = std::max(max_n, code->spec().n);
    max_k = std::max(max_k, code->spec().k);
  }

  // Per-bits physics: allocation + calibration are the expensive part, built
  // once per bits value and shared (const) across points and threads.
  struct BitsContext {
    mlc::QlcProgrammer programmer;
    LevelCoder coder;
    std::size_t cells;
  };
  std::vector<BitsContext> contexts;
  contexts.reserve(config.bits.size());
  for (const std::size_t bits : config.bits) {
    mlc::QlcProgrammer programmer(mlc::QlcConfig::paper_default(bits));
    LevelCoder coder(bits);
    const std::size_t cells = coder.cells_for_bits(max_n);
    contexts.push_back({std::move(programmer), coder, cells});
  }

  // The policy grid, outermost bits so frontier grouping is contiguous.
  std::vector<PolicyGridPoint> grid;
  for (std::size_t b = 0; b < config.bits.size(); ++b) {
    for (const double scrub : config.scrub_periods_s) {
      for (const bool verify : config.verify) {
        for (const std::uint64_t rotate : config.rotations) {
          grid.push_back({b, config.bits[b], scrub, verify, rotate});
        }
      }
    }
  }

  // Physics phase: flat (point x trial) index space, every trial claimable by
  // any pool thread; Rng = (point seed, trial index) keeps the result
  // bit-identical for any thread count.
  const std::size_t trials = config.trials;
  std::vector<WordTrial> words(grid.size() * trials);
  util::parallel_for(words.size(), config.threads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const PolicyGridPoint& point = grid[i / trials];
      const BitsContext& context = contexts[point.bits_index];

      ChannelConfig channel;
      channel.drift = config.drift;
      channel.read_disturb = config.read_disturb;
      channel.endurance = config.endurance;
      channel.policy = {point.scrub_period_s, point.verify, point.rotate};

      Rng rng = mc::trial_rng(point_seed(config.seed, i / trials), i % trials);
      words[i] = simulate_word(channel, context.programmer, context.cells, rng);
    }
  });

  EccReport report;
  report.seed = config.seed;
  report.trials = trials;
  report.bits = config.bits;
  report.scrub_periods_s = config.scrub_periods_s;
  report.verify = config.verify;
  report.rotations = config.rotations;
  report.points.reserve(grid.size());

  // Scoring phase (sequential, cheap): every code consumes the same error
  // stream per trial; payloads are deterministic per (point, trial).
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const PolicyGridPoint& point = grid[p];
    const BitsContext& context = contexts[point.bits_index];

    PolicyPointOutcome outcome;
    outcome.bits = point.bits;
    outcome.scrub_period_s = point.scrub_period_s;
    outcome.verify = point.verify;
    outcome.rotate_every_writes = point.rotate;
    outcome.effective_cycles = effective_cycles(point.rotate);
    outcome.cells_programmed = context.cells * trials;
    outcome.scrub_duty = scrub_duty(config.geometry, point.scrub_period_s);
    outcome.rotate_overhead =
        point.rotate == 0 ? 0.0 : 1.0 / static_cast<double>(point.rotate);

    outcome.codes.resize(catalog.size());
    for (std::size_t c = 0; c < catalog.size(); ++c) {
      const CodeSpec& spec = catalog[c]->spec();
      CodeOutcome& code = outcome.codes[c];
      code.code = spec.name;
      code.n = spec.n;
      code.k = spec.k;
      code.t = spec.t;
      code.same_block = spec.same_block;
      code.overhead = spec.overhead();
    }

    for (std::size_t trial = 0; trial < trials; ++trial) {
      const WordTrial& word = words[p * trials + trial];
      outcome.verify_reprograms += word.verify_reprograms;
      outcome.scrub_reprograms += word.scrub_reprograms;

      const std::vector<std::uint8_t> errors =
          error_bits(context.coder, word.target, word.observed);

      // Deterministic payload pool; each code stores its k-bit prefix.
      Rng payload_rng(point_seed(config.seed, p) ^
                      (0xD1CEB00C5ULL + static_cast<std::uint64_t>(trial)));
      std::vector<std::uint8_t> payload(max_k);
      for (std::size_t base = 0; base < max_k; base += 64) {
        const std::uint64_t draw = payload_rng.next_u64();
        for (std::size_t b = 0; b < 64 && base + b < max_k; ++b) {
          payload[base + b] = static_cast<std::uint8_t>((draw >> b) & 1u);
        }
      }

      for (std::size_t c = 0; c < catalog.size(); ++c) {
        const CodeSpec& spec = catalog[c]->spec();
        CodeOutcome& code = outcome.codes[c];

        unsigned weight = 0;
        for (std::size_t i = 0; i < spec.n; ++i) weight += errors[i];

        code.words += 1;
        code.stored_bits += spec.n;
        code.data_bits += spec.k;
        code.raw_bit_errors += weight;
        if (weight > 0) code.errored_words += 1;
        if (weight > spec.t) {
          code.failed_words += 1;
          code.uncorrectable_bit_errors += weight;
        }

        // Real decoder pass: encode the payload, overlay the channel errors,
        // decode, and account for what actually reaches the user.
        const std::span<const std::uint8_t> data(payload.data(), spec.k);
        std::vector<std::uint8_t> stored = catalog[c]->encode(data);
        for (std::size_t i = 0; i < spec.n; ++i) stored[i] ^= errors[i];
        const Code::Decoded decoded = catalog[c]->decode(stored);
        const unsigned delivered = hamming(decoded.data, data);
        code.delivered_data_bit_errors += delivered;
        if (decoded.uncorrectable) {
          code.detected_words += 1;
        } else {
          code.corrected_bits += decoded.corrected_bits;
          if (delivered > 0) code.miscorrected_words += 1;
        }
        metrics.words_decoded.add();
        metrics.bits_corrected.add(decoded.corrected_bits);
        if (decoded.uncorrectable) metrics.words_uncorrectable.add();
        if (!decoded.uncorrectable && delivered > 0) metrics.words_miscorrected.add();
      }
    }

    for (CodeOutcome& code : outcome.codes) {
      code.raw_ber = static_cast<double>(code.raw_bit_errors) /
                     static_cast<double>(code.stored_bits);
      code.uber = static_cast<double>(code.uncorrectable_bit_errors) /
                  static_cast<double>(code.stored_bits);
      code.delivered_uber = static_cast<double>(code.delivered_data_bit_errors) /
                            static_cast<double>(code.data_bits);
      code.corrected_word_fraction =
          code.errored_words == 0
              ? 1.0
              : 1.0 - static_cast<double>(code.failed_words) /
                          static_cast<double>(code.errored_words);
    }
    outcome.verify_overhead = static_cast<double>(outcome.verify_reprograms) /
                              static_cast<double>(outcome.cells_programmed);
    outcome.probe = run_probe(config, point);

    metrics.policy_points.add();
    metrics.words_simulated.add(trials);
    metrics.cells_programmed.add(outcome.cells_programmed);
    metrics.verify_reprograms.add(outcome.verify_reprograms);
    metrics.scrub_reprograms.add(outcome.scrub_reprograms);
    report.points.push_back(std::move(outcome));
  }

  // Frontier: per bits value, the Pareto-minimal (total overhead, uber) set
  // over every (policy, code) combination.
  for (const std::size_t bits : config.bits) {
    std::vector<FrontierPoint> candidates;
    for (const PolicyPointOutcome& point : report.points) {
      if (point.bits != bits) continue;
      for (const CodeOutcome& code : point.codes) {
        FrontierPoint fp;
        fp.bits = bits;
        fp.code = code.code;
        fp.scrub_period_s = point.scrub_period_s;
        fp.verify = point.verify;
        fp.rotate_every_writes = point.rotate_every_writes;
        fp.total_overhead = point.total_overhead(code);
        fp.uber = code.uber;
        fp.usable_bits_per_cell = static_cast<double>(bits) *
                                  static_cast<double>(code.k) /
                                  static_cast<double>(code.n);
        candidates.push_back(std::move(fp));
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const FrontierPoint& a, const FrontierPoint& b) {
                       return a.total_overhead < b.total_overhead;
                     });
    double best_uber = std::numeric_limits<double>::infinity();
    for (FrontierPoint& fp : candidates) {
      if (fp.uber < best_uber) {
        best_uber = fp.uber;
        report.frontier.push_back(std::move(fp));
      }
    }
  }
  return report;
}

bool uber_monotone(const EccReport& report) {
  for (const PolicyPointOutcome& point : report.points) {
    double previous = std::numeric_limits<double>::infinity();
    for (const CodeOutcome& code : point.codes) {
      if (!code.same_block) continue;
      if (code.uber > previous) return false;
      previous = code.uber;
    }
  }
  return true;
}

obs::Json to_json(const EccReport& report) {
  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json(kEccSchema));
  root.set("seed", obs::Json(static_cast<double>(report.seed)));
  root.set("trials", obs::Json(static_cast<double>(report.trials)));
  root.set("horizon_s", obs::Json(kReadBackHorizon));
  root.set("uber_monotone", obs::Json(uber_monotone(report)));

  // Same provenance block as every BENCH_*.json (bench_common.hpp): the CI
  // perf gate refuses to compare artifacts from mismatched builds.
  root.set("provenance", obs::Json::parse(util::provenance_json()));

  obs::Json grid = obs::Json::object();
  obs::Json bits = obs::Json::array();
  for (const std::size_t b : report.bits) bits.push_back(obs::Json(static_cast<double>(b)));
  grid.set("bits", std::move(bits));
  obs::Json scrub = obs::Json::array();
  for (const double s : report.scrub_periods_s) scrub.push_back(obs::Json(s));
  grid.set("scrub_periods_s", std::move(scrub));
  obs::Json verify = obs::Json::array();
  for (const bool v : report.verify) verify.push_back(obs::Json(v));
  grid.set("verify", std::move(verify));
  obs::Json rotations = obs::Json::array();
  for (const std::uint64_t r : report.rotations) {
    rotations.push_back(obs::Json(static_cast<double>(r)));
  }
  grid.set("rotations", std::move(rotations));
  root.set("grid", std::move(grid));

  obs::Json points = obs::Json::array();
  for (const PolicyPointOutcome& point : report.points) {
    obs::Json p = obs::Json::object();
    p.set("bits", obs::Json(static_cast<double>(point.bits)));
    p.set("scrub_period_s", obs::Json(point.scrub_period_s));
    p.set("verify", obs::Json(point.verify));
    p.set("rotate_every_writes",
          obs::Json(static_cast<double>(point.rotate_every_writes)));
    p.set("effective_cycles", obs::Json(point.effective_cycles));
    p.set("cells_programmed", obs::Json(static_cast<double>(point.cells_programmed)));
    p.set("verify_reprograms", obs::Json(static_cast<double>(point.verify_reprograms)));
    p.set("scrub_reprograms", obs::Json(static_cast<double>(point.scrub_reprograms)));
    p.set("scrub_duty", obs::Json(point.scrub_duty));
    p.set("verify_overhead", obs::Json(point.verify_overhead));
    p.set("rotate_overhead", obs::Json(point.rotate_overhead));
    if (point.probe.ran) {
      obs::Json probe = obs::Json::object();
      probe.set("row_hit_rate", obs::Json(point.probe.row_hit_rate));
      probe.set("p99_ns", obs::Json(point.probe.p99_ns));
      probe.set("scrub_commands",
                obs::Json(static_cast<double>(point.probe.scrub_commands)));
      probe.set("wear_rotations",
                obs::Json(static_cast<double>(point.probe.wear_rotations)));
      p.set("scheduler_probe", std::move(probe));
    }
    obs::Json codes = obs::Json::array();
    for (const CodeOutcome& code : point.codes) {
      obs::Json c = obs::Json::object();
      c.set("code", obs::Json(code.code));
      c.set("n", obs::Json(static_cast<double>(code.n)));
      c.set("k", obs::Json(static_cast<double>(code.k)));
      c.set("t", obs::Json(static_cast<double>(code.t)));
      c.set("same_block", obs::Json(code.same_block));
      c.set("overhead", obs::Json(code.overhead));
      c.set("total_overhead", obs::Json(point.total_overhead(code)));
      c.set("words", obs::Json(static_cast<double>(code.words)));
      c.set("errored_words", obs::Json(static_cast<double>(code.errored_words)));
      c.set("failed_words", obs::Json(static_cast<double>(code.failed_words)));
      c.set("detected_words", obs::Json(static_cast<double>(code.detected_words)));
      c.set("miscorrected_words",
            obs::Json(static_cast<double>(code.miscorrected_words)));
      c.set("corrected_bits", obs::Json(static_cast<double>(code.corrected_bits)));
      c.set("raw_ber", obs::Json(code.raw_ber));
      c.set("uber", obs::Json(code.uber));
      c.set("delivered_uber", obs::Json(code.delivered_uber));
      c.set("corrected_word_fraction", obs::Json(code.corrected_word_fraction));
      codes.push_back(std::move(c));
    }
    p.set("codes", std::move(codes));
    points.push_back(std::move(p));
  }
  root.set("points", std::move(points));

  obs::Json frontier = obs::Json::array();
  for (const FrontierPoint& fp : report.frontier) {
    obs::Json f = obs::Json::object();
    f.set("bits", obs::Json(static_cast<double>(fp.bits)));
    f.set("code", obs::Json(fp.code));
    f.set("scrub_period_s", obs::Json(fp.scrub_period_s));
    f.set("verify", obs::Json(fp.verify));
    f.set("rotate_every_writes",
          obs::Json(static_cast<double>(fp.rotate_every_writes)));
    f.set("total_overhead", obs::Json(fp.total_overhead));
    f.set("uber", obs::Json(fp.uber));
    f.set("usable_bits_per_cell", obs::Json(fp.usable_bits_per_cell));
    frontier.push_back(std::move(f));
  }
  root.set("frontier", std::move(frontier));
  return root;
}

}  // namespace oxmlc::ecc
