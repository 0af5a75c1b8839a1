#include "mlc/retention.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"
#include "util/provenance.hpp"

namespace oxmlc::mlc {
namespace {

struct RetentionMetrics {
  obs::Counter& studies = obs::registry().counter("reliability.retention_studies");
  obs::Counter& trials = obs::registry().counter("reliability.retention_trials");
  obs::Timer& study_time = obs::registry().timer("reliability.retention_time");

  static RetentionMetrics& get() {
    static RetentionMetrics metrics;
    return metrics;
  }
};

// One trial's state trajectory, tracked exactly like ReliabilityEngine does
// for an array cell: anchor gap + event amplitudes + accumulated disturb
// offset, evaluated lazily at each observation time.
struct TrialSample {
  double r_initial = 0.0;
  double energy = 0.0;
  double latency = 0.0;
  std::vector<double> r_at_time;
  std::uint32_t reprogrammed = 0;
  bool unrecovered = false;
};

double read_resistance(oxram::FastCell& cell, double gap, const QlcConfig& qlc) {
  cell.set_gap(gap);
  return cell.read(qlc.v_read, qlc.v_wl_read).r_cell;
}

TrialSample run_trial(const RetentionConfig& config, const QlcProgrammer& programmer,
                      std::size_t level, Rng& rng) {
  const oxram::OxramParams device =
      oxram::sample_device(config.study.nominal, config.study.variability, rng);
  oxram::FastCell cell = oxram::FastCell::formed_lrs(device, config.study.stack);
  const ProgramOutcome outcome = programmer.program(cell, level, rng);

  TrialSample sample;
  sample.r_initial = outcome.resistance;
  sample.energy = outcome.energy;
  sample.latency = outcome.latency;

  const oxram::DriftParams& drift = config.drift;
  double anchor = cell.gap();
  const double g_min = device.g_min;
  double relax_amp = oxram::sample_relaxation_amplitude(drift, rng);
  const double drift_amp = oxram::sample_drift_amplitude(drift, rng);
  double t_anchor = 0.0;  // absolute time of the last program event
  double t_now = 0.0;
  double offset = 0.0;    // accumulated read-disturb gap shift

  const auto gap_at = [&](double t_abs) {
    const double g = oxram::drifted_gap(drift, anchor, g_min, relax_amp, drift_amp,
                                        std::max(t_abs - t_anchor, 0.0));
    return std::clamp(g + offset, g_min, device.g_max);
  };

  if (config.relax_verify) {
    for (std::size_t pass = 0; pass < config.verify_max_passes; ++pass) {
      t_now += config.tau_relax;
      double g = gap_at(t_now);
      const double g_disturbed = reliability::disturbed_gap(
          cell, g, /*virgin=*/false, 1, config.read_disturb, config.study.qlc.v_read,
          config.study.qlc.v_wl_read);
      offset += g_disturbed - g;
      g = g_disturbed;
      cell.set_gap(g);
      const std::size_t decoded = programmer.read_level(cell, rng);
      sample.unrecovered = decoded != level;
      if (!sample.unrecovered || pass + 1 == config.verify_max_passes) {
        break;  // in band, or out of re-program budget
      }
      // Re-terminate: a fresh relaxation draw replaces the tail event the
      // verify just caught — the selection effect that recovers the window.
      programmer.program(cell, level, rng);
      ++sample.reprogrammed;
      anchor = cell.gap();
      t_anchor = t_now;
      offset = 0.0;
      relax_amp = oxram::sample_relaxation_amplitude(drift, rng);
    }
  }

  sample.r_at_time.reserve(config.times.size());
  for (double t : config.times) {
    // Observation times are measured from the initial program; times earlier
    // than the last verify event evaluate at that event (t_eff clamped >= 0).
    sample.r_at_time.push_back(read_resistance(cell, gap_at(t), config.study.qlc));
  }
  return sample;
}

}  // namespace

RetentionConfig RetentionConfig::paper_default(std::size_t bits, std::size_t trials) {
  RetentionConfig config;
  config.study = paper_mc_study(bits, trials);
  config.times = {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7};
  return config;
}

RetentionReport run_retention_study(const RetentionConfig& config) {
  OXMLC_CHECK(!config.times.empty(), "run_retention_study: need observation times");
  OXMLC_CHECK(std::is_sorted(config.times.begin(), config.times.end()),
              "run_retention_study: times must be ascending");
  RetentionMetrics& metrics = RetentionMetrics::get();
  metrics.studies.add();
  obs::ScopedTimer timer(metrics.study_time);

  const QlcProgrammer programmer(config.study.qlc);
  const std::size_t n_levels = config.study.qlc.allocation.count();
  const std::vector<double> thresholds = midpoint_thresholds(config.study.qlc.allocation);

  RetentionReport report;
  report.seed = config.study.mc.seed;
  report.trials = config.study.mc.trials;
  report.bits = config.study.qlc.allocation.bits;
  report.relax_verify = config.relax_verify;
  report.tau_relax = config.tau_relax;
  report.verify_max_passes = config.verify_max_passes;
  report.times = config.times;

  // Per-level MC (seeded exactly like run_level_study), collected into one
  // distribution per (time, level).
  std::vector<LevelDistribution> initial(n_levels);
  report.points.resize(config.times.size());
  for (std::size_t k = 0; k < config.times.size(); ++k) {
    report.points[k].t = config.times[k];
    report.points[k].levels.resize(n_levels);
  }

  // One flat (level × trial) index space instead of n_levels sequential MC
  // runs, so every trial across every level can be claimed by the same pool.
  // Each trial's Rng still derives from (study_level_seed(seed, level), trial)
  // exactly as the per-level mc::run_trials call did, so samples stay
  // bit-identical to the sequential sweep for any thread count.
  const std::size_t trials = config.study.mc.trials;
  const std::size_t total = n_levels * trials;
  std::vector<TrialSample> samples(total);
  util::parallel_for(total, config.study.mc.threads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t level = i / trials;
      Rng rng = mc::trial_rng(study_level_seed(config.study.mc.seed, level), i % trials);
      samples[i] = run_trial(config, programmer, level, rng);
    }
  });
  metrics.trials.add(total);

  for (std::size_t level = 0; level < n_levels; ++level) {
    const TrialSample* level_samples = samples.data() + level * trials;

    LevelDistribution& dist0 = initial[level];
    dist0.level = config.study.qlc.allocation.levels[level];
    for (std::size_t t = 0; t < trials; ++t) {
      const TrialSample& sample = level_samples[t];
      dist0.resistance.push_back(sample.r_initial);
      dist0.energy.push_back(sample.energy);
      dist0.latency.push_back(sample.latency);
      report.verify_reprogrammed += sample.reprogrammed;
      report.verify_unrecovered += sample.unrecovered ? 1 : 0;
    }
    for (std::size_t k = 0; k < config.times.size(); ++k) {
      LevelDistribution& dist = report.points[k].levels[level];
      dist.level = config.study.qlc.allocation.levels[level];
      dist.resistance.reserve(trials);
      for (std::size_t t = 0; t < trials; ++t) {
        const TrialSample& sample = level_samples[t];
        dist.resistance.push_back(sample.r_at_time[k]);
        dist.energy.push_back(sample.energy);
        dist.latency.push_back(sample.latency);
      }
    }
  }

  report.initial_margins = analyze_margins(initial);
  report.initial_ber = decode_ber(initial, thresholds);
  for (RetentionPoint& point : report.points) {
    point.margins = analyze_margins(point.levels);
    point.ber = decode_ber(point.levels, thresholds);
  }
  return report;
}

RetentionComparison run_retention_comparison(RetentionConfig config) {
  RetentionComparison comparison;
  config.relax_verify = false;
  comparison.verify_off = run_retention_study(config);
  config.relax_verify = true;
  comparison.verify_on = run_retention_study(config);
  return comparison;
}

double recovered_window_fraction(const RetentionComparison& comparison, std::size_t point) {
  OXMLC_CHECK(point < comparison.verify_off.points.size() &&
                  point < comparison.verify_on.points.size(),
              "recovered_window_fraction: point out of range");
  const double initial = comparison.verify_off.initial_margins.worst_case_margin;
  const double off = comparison.verify_off.points[point].margins.worst_case_margin;
  const double on = comparison.verify_on.points[point].margins.worst_case_margin;
  const double lost = initial - off;
  if (!(lost > 0.0)) {
    return on >= off ? 1.0 : 0.0;  // nothing was lost to recover
  }
  return (on - off) / lost;
}

double recovered_window_fraction(const RetentionComparison& comparison) {
  OXMLC_CHECK(!comparison.verify_off.points.empty(),
              "recovered_window_fraction: empty comparison");
  return recovered_window_fraction(comparison, comparison.verify_off.points.size() - 1);
}

namespace {

obs::Json margin_json(const MarginReport& margins, const BerReport& ber) {
  obs::Json j = obs::Json::object();
  j.set("worst_case_margin_ohm", obs::Json(margins.worst_case_margin));
  j.set("minimal_nominal_spacing_ohm", obs::Json(margins.minimal_nominal_spacing));
  j.set("any_overlap", obs::Json(margins.any_overlap));
  j.set("ber", obs::Json(ber.ber));
  j.set("decode_errors", obs::Json(static_cast<double>(ber.errors)));
  j.set("decode_samples", obs::Json(static_cast<double>(ber.samples)));
  return j;
}

}  // namespace

obs::Json to_json(const RetentionReport& report) {
  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json(kRetentionSchema));
  root.set("mode", obs::Json("single"));
  root.set("seed", obs::Json(static_cast<double>(report.seed)));
  root.set("trials", obs::Json(static_cast<double>(report.trials)));
  root.set("bits", obs::Json(static_cast<double>(report.bits)));
  root.set("relax_verify", obs::Json(report.relax_verify));
  root.set("tau_relax_s", obs::Json(report.tau_relax));
  root.set("verify_max_passes", obs::Json(static_cast<double>(report.verify_max_passes)));
  root.set("verify_reprogrammed", obs::Json(static_cast<double>(report.verify_reprogrammed)));
  root.set("verify_unrecovered", obs::Json(static_cast<double>(report.verify_unrecovered)));
  root.set("initial", margin_json(report.initial_margins, report.initial_ber));

  obs::Json points = obs::Json::array();
  for (const RetentionPoint& point : report.points) {
    obs::Json p = margin_json(point.margins, point.ber);
    p.set("t_s", obs::Json(point.t));
    obs::Json per_level = obs::Json::array();
    for (const LevelDistribution& dist : point.levels) {
      const BoxPlotSummary summary = dist.resistance_summary();
      obs::Json l = obs::Json::object();
      l.set("value", obs::Json(static_cast<double>(dist.level.value)));
      l.set("median_r_ohm", obs::Json(summary.median));
      l.set("iqr_r_ohm", obs::Json(summary.iqr()));
      per_level.push_back(std::move(l));
    }
    p.set("per_level", std::move(per_level));
    points.push_back(std::move(p));
  }
  root.set("points", std::move(points));
  return root;
}

obs::Json to_json(const RetentionComparison& comparison) {
  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json(kRetentionSchema));
  root.set("mode", obs::Json("comparison"));
  // Same provenance block as every BENCH_*.json (bench_common.hpp): the CI
  // perf gate refuses to compare artifacts from mismatched builds.
  obs::Json provenance = obs::Json::object();
  provenance.set("git_sha", obs::Json(util::build_git_sha()));
  provenance.set("compiler", obs::Json(util::build_compiler()));
  provenance.set("flags", obs::Json(util::build_flags()));
  provenance.set("build_type", obs::Json(util::build_type()));
  root.set("provenance", std::move(provenance));
  root.set("verify_off", to_json(comparison.verify_off));
  root.set("verify_on", to_json(comparison.verify_on));

  obs::Json recovery = obs::Json::object();
  const std::size_t last = comparison.verify_off.points.size() - 1;
  recovery.set("time_s", obs::Json(comparison.verify_off.points[last].t));
  recovery.set("initial_window_ohm",
               obs::Json(comparison.verify_off.initial_margins.worst_case_margin));
  recovery.set("window_off_ohm",
               obs::Json(comparison.verify_off.points[last].margins.worst_case_margin));
  recovery.set("window_on_ohm",
               obs::Json(comparison.verify_on.points[last].margins.worst_case_margin));
  recovery.set("recovered_fraction", obs::Json(recovered_window_fraction(comparison)));
  root.set("recovery", std::move(recovery));
  return root;
}

}  // namespace oxmlc::mlc
