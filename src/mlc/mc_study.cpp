#include "mlc/mc_study.hpp"

namespace oxmlc::mlc {

std::uint64_t study_level_seed(std::uint64_t base, std::size_t level) {
  return base ^ (0x51ED270B2D4C4Dull * (level + 1));
}

McStudyConfig paper_mc_study(std::size_t bits, std::size_t trials) {
  McStudyConfig config;
  config.nominal = oxram::OxramParams{};
  config.stack = oxram::StackConfig{};
  config.variability = oxram::OxramVariability{};

  QlcConfig qlc = QlcConfig::paper_default();
  const CalibrationCurve curve = build_calibration_curve(
      config.nominal, config.stack, qlc, kPaperIrefMin, kPaperIrefMax, 25);
  qlc.allocation = LevelAllocation::iso_delta_i(bits, kPaperIrefMin, kPaperIrefMax, curve);
  config.qlc = qlc;
  config.mc.trials = trials;
  return config;
}

std::vector<LevelDistribution> run_level_study(const McStudyConfig& config) {
  // One programmer for the whole study (its constructor solves the read
  // stack per level); trials only read it, so sharing is safe.
  const QlcProgrammer programmer(config.qlc);
  const std::size_t n_levels = config.qlc.allocation.count();

  // One MC trial programs every level of the allocation as a single
  // CellBatch word — 16 lanes in lockstep with per-lane termination. Each
  // level keeps its own (study_level_seed, trial)-derived rng (device D2D,
  // then SET rate / IrefR mismatch / RST rate inside program_word).
  struct LevelSample {
    double resistance = 0.0;
    double energy = 0.0;
    double latency = 0.0;
  };
  using TrialSamples = std::vector<LevelSample>;

  const std::function<TrialSamples(std::size_t, Rng&)> trial =
      [&](std::size_t t, Rng&) {
        std::vector<Rng> rngs;
        std::vector<oxram::FastCell> cells;
        std::vector<std::size_t> levels(n_levels);
        rngs.reserve(n_levels);
        cells.reserve(n_levels);
        for (std::size_t level = 0; level < n_levels; ++level) {
          levels[level] = level;
          rngs.push_back(mc::trial_rng(study_level_seed(config.mc.seed, level), t));
          const oxram::OxramParams device =
              sample_device(config.nominal, config.variability, rngs.back());
          cells.push_back(oxram::FastCell::formed_lrs(device, config.stack));
        }
        std::vector<oxram::FastCell*> cell_ptrs(n_levels);
        std::vector<Rng*> rng_ptrs(n_levels);
        for (std::size_t k = 0; k < n_levels; ++k) {
          cell_ptrs[k] = &cells[k];
          rng_ptrs[k] = &rngs[k];
        }
        const std::vector<ProgramOutcome> outcomes =
            programmer.program_word(cell_ptrs, levels, rng_ptrs);
        TrialSamples samples(n_levels);
        for (std::size_t k = 0; k < n_levels; ++k) {
          samples[k] = LevelSample{outcomes[k].resistance, outcomes[k].energy,
                                   outcomes[k].latency};
        }
        return samples;
      };

  const std::vector<TrialSamples> trials = mc::run_trials<TrialSamples>(config.mc, trial);

  std::vector<LevelDistribution> distributions(n_levels);
  for (std::size_t level = 0; level < n_levels; ++level) {
    LevelDistribution& dist = distributions[level];
    dist.level = config.qlc.allocation.levels[level];
    dist.resistance.reserve(trials.size());
    dist.energy.reserve(trials.size());
    dist.latency.reserve(trials.size());
    for (const TrialSamples& samples : trials) {
      dist.resistance.push_back(samples[level].resistance);
      dist.energy.push_back(samples[level].energy);
      dist.latency.push_back(samples[level].latency);
    }
  }
  return distributions;
}

}  // namespace oxmlc::mlc
