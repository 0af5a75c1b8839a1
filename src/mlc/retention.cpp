#include "mlc/retention.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "mc/runner.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/provenance.hpp"
#include "util/schema.hpp"

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

// One trial: the word of every level as programmed, and each branch's
// resistances at every observation time (r_at_time[relax_verify], time-major,
// n_levels entries per time).
struct TrialSample {
  std::vector<ProgramOutcome> outcomes;
  std::array<std::vector<double>, 2> r_at_time;
  DriftingWord::VerifyCounts verify;
};

// Observation times are measured from the initial program; times earlier
// than a cell's last verify event evaluate at that event.
std::vector<double> observe(DriftingWord& word, const std::vector<double>& times) {
  std::vector<double> r;
  r.reserve(times.size() * word.size());
  for (const double time : times) {
    for (std::size_t i = 0; i < word.size(); ++i) r.push_back(word.resistance_at(i, time));
  }
  return r;
}

// One branch's report: the trials' shared outcomes as programmed, then the
// branch's own resistances at each time.
RetentionReport branch_report(const RetentionConfig& config,
                              const std::vector<TrialSample>& samples, bool relax_verify) {
  const LevelAllocation& allocation = config.study.qlc.allocation;
  const std::size_t n_levels = allocation.count();
  const std::vector<double> thresholds = midpoint_thresholds(allocation);

  RetentionReport report;
  report.seed = config.study.mc.seed;
  report.trials = config.study.mc.trials;
  report.bits = allocation.bits;
  report.relax_verify = relax_verify;
  report.verify_max_passes = config.verify_max_passes;
  if (relax_verify) {
    for (const TrialSample& sample : samples) {
      report.verify_reprogrammed += sample.verify.reprogrammed;
      report.verify_unrecovered += sample.verify.unrecovered;
    }
  }

  // A level's distribution over the trials, with the resistance `r` reads.
  const auto distribution = [&](std::size_t level, const auto& r) {
    LevelDistribution dist;
    dist.level = allocation.levels[level];
    for (const TrialSample& sample : samples) {
      dist.resistance.push_back(r(sample));
      dist.energy.push_back(sample.outcomes[level].energy);
      dist.latency.push_back(sample.outcomes[level].latency);
    }
    return dist;
  };

  std::vector<LevelDistribution> initial;
  for (std::size_t level = 0; level < n_levels; ++level) {
    initial.push_back(distribution(
        level, [&](const TrialSample& sample) { return sample.outcomes[level].resistance; }));
  }
  report.initial_margins = analyze_margins(initial);
  report.initial_ber = decode_ber(initial, thresholds);
  report.points.resize(config.times.size());
  for (std::size_t k = 0; k < config.times.size(); ++k) {
    RetentionPoint& point = report.points[k];
    point.t = config.times[k];
    for (std::size_t level = 0; level < n_levels; ++level) {
      point.levels.push_back(distribution(level, [&](const TrialSample& sample) {
        return sample.r_at_time[relax_verify][k * n_levels + level];
      }));
    }
    point.margins = analyze_margins(point.levels);
    point.ber = decode_ber(point.levels, thresholds);
  }
  return report;
}

}  // namespace

DriftingWord::DriftingWord(const QlcProgrammer& programmer, const oxram::DriftParams& drift,
                           std::vector<oxram::FastCell> cells, std::vector<Rng> rngs,
                           std::vector<std::size_t> targets)
    : programmer_(&programmer), drift_(drift), cells_(std::move(cells)),
      rngs_(std::move(rngs)), targets_(std::move(targets)), trajectories_(cells_.size()) {
  OXMLC_CHECK(rngs_.size() == cells_.size() && targets_.size() == cells_.size(),
              "DriftingWord: cells, rngs and targets differ in length");
  std::vector<oxram::FastCell*> cell_ptrs(size());
  std::vector<Rng*> rng_ptrs(size());
  for (std::size_t i = 0; i < size(); ++i) {
    cell_ptrs[i] = &cells_[i];
    rng_ptrs[i] = &rngs_[i];
  }
  outcomes_ = programmer_->program_word(cell_ptrs, targets_, rng_ptrs);
  for (std::size_t i = 0; i < size(); ++i) {
    trajectories_[i].reanchor(drift_, cells_[i].gap(), 0.0, rngs_[i]);
  }
}

std::size_t DriftingWord::sense(std::size_t i, double t) {
  oxram::FastCell& cell = cells_[i];
  oxram::DriftTrajectory& trajectory = trajectories_[i];
  const double g = trajectory.gap_at(drift_, cell.params(), t);
  const double g_disturbed = oxram::disturbed_gap(cell, g, 1, oxram::ReadDisturbModel{});
  trajectory.offset += g_disturbed - g;
  cell.set_gap(g_disturbed);
  return programmer_->read_level(cell, rngs_[i]);
}

double DriftingWord::resistance_at(std::size_t i, double t) {
  oxram::FastCell& cell = cells_[i];
  cell.set_gap(trajectories_[i].gap_at(drift_, cell.params(), t));
  return cell.read().r_cell;
}

void DriftingWord::reprogram(std::span<const std::size_t> cells, double t) {
  if (cells.empty()) return;
  std::vector<oxram::FastCell*> cell_ptrs;
  std::vector<std::size_t> levels;
  std::vector<Rng*> rng_ptrs;
  for (const std::size_t i : cells) {
    cell_ptrs.push_back(&cells_[i]);
    levels.push_back(targets_[i]);
    rng_ptrs.push_back(&rngs_[i]);
  }
  programmer_->program_word(cell_ptrs, levels, rng_ptrs);
  // A fresh relaxation draw replaces the tail event the sense just caught:
  // the selection effect that recovers the window.
  for (const std::size_t i : cells) {
    trajectories_[i].reanchor(drift_, cells_[i].gap(), t, rngs_[i]);
  }
}

DriftingWord::VerifyCounts DriftingWord::relax_verify(std::size_t max_passes) {
  VerifyCounts counts;
  std::vector<std::size_t> pending(size());
  for (std::size_t i = 0; i < size(); ++i) pending[i] = i;
  double t = 0.0;
  for (std::size_t pass = 0; pass < max_passes && !pending.empty(); ++pass) {
    t += kVerifyWait;
    std::vector<std::size_t> slipped;
    for (const std::size_t i : pending) {
      if (sense(i, t) != targets_[i]) slipped.push_back(i);
    }
    if (pass + 1 == max_passes) {
      counts.unrecovered = slipped.size();  // out of re-program budget
      break;
    }
    reprogram(slipped, t);
    counts.reprogrammed += slipped.size();
    pending = std::move(slipped);
  }
  return counts;
}

RetentionConfig RetentionConfig::paper_default(std::size_t bits, std::size_t trials) {
  RetentionConfig config;
  config.study = paper_mc_study(bits, trials);
  config.times = {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7};
  return config;
}

RetentionComparison run_retention_comparison(const RetentionConfig& config) {
  OXMLC_CHECK(!config.times.empty(), "run_retention_comparison: need observation times");
  OXMLC_CHECK(std::is_sorted(config.times.begin(), config.times.end()),
              "run_retention_comparison: times must be ascending");
  RetentionMetrics& metrics = RetentionMetrics::get();
  metrics.studies.add();
  obs::ScopedTimer timer(metrics.study_time);

  const QlcProgrammer programmer(config.study.qlc);
  // One trial programs every level as one word, then hands a copy to the
  // verify: both branches continue from the same cells, rngs and
  // trajectories.
  const std::vector<TrialSample> samples = mc::run_trials<TrialSample>(
      config.study.mc.trials, config.study.mc.threads, [&](std::size_t t) {
        StudyWord sampled = sample_study_word(config.study, t);
        DriftingWord off(programmer, oxram::DriftParams{}, std::move(sampled.cells),
                         std::move(sampled.rngs), std::move(sampled.levels));
        DriftingWord on = off;
        TrialSample sample;
        sample.outcomes = off.outcomes();
        sample.verify = on.relax_verify(config.verify_max_passes);
        sample.r_at_time = {observe(off, config.times), observe(on, config.times)};
        return sample;
      });
  metrics.trials.add(config.study.qlc.allocation.count() * samples.size());

  return {branch_report(config, samples, false), branch_report(config, samples, true)};
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
  root.set("schema", obs::Json(util::kRetentionSchema));
  root.set("mode", obs::Json("single"));
  root.set("seed", obs::Json(static_cast<double>(report.seed)));
  root.set("trials", obs::Json(static_cast<double>(report.trials)));
  root.set("bits", obs::Json(static_cast<double>(report.bits)));
  root.set("relax_verify", obs::Json(report.relax_verify));
  root.set("tau_relax_s", obs::Json(kVerifyWait));
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
  root.set("schema", obs::Json(util::kRetentionSchema));
  root.set("mode", obs::Json("comparison"));
  // Same provenance block as every BENCH_*.json (bench_common.hpp): the CI
  // perf gate refuses to compare artifacts from mismatched builds.
  root.set("provenance", obs::Json::parse(util::provenance_json()));
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
