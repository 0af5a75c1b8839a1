#include "mlc/mc_study.hpp"

#include "mc/runner.hpp"

namespace oxmlc::mlc {

McStudyConfig paper_mc_study(std::size_t bits, std::size_t trials) {
  McStudyConfig config;
  config.qlc = QlcConfig::paper_default(bits);
  config.mc.trials = trials;
  return config;
}

StudyWord sample_study_word(const McStudyConfig& config, std::size_t trial) {
  const std::size_t n_levels = config.qlc.allocation.count();
  StudyWord word;
  word.cells.reserve(n_levels);
  word.rngs.reserve(n_levels);
  word.levels.resize(n_levels);
  for (std::size_t level = 0; level < n_levels; ++level) {
    word.levels[level] = level;
    const std::uint64_t level_seed = config.mc.seed ^ (0x51ED270B2D4C4Dull * (level + 1));
    word.rngs.push_back(mc::trial_rng(level_seed, trial));
    const oxram::OxramParams device =
        sample_device(config.qlc.nominal_cell, config.qlc.variability, word.rngs.back());
    word.cells.push_back(oxram::FastCell::formed_lrs(device, config.qlc.stack));
  }
  return word;
}

std::vector<LevelDistribution> run_level_study(const McStudyConfig& config) {
  // One programmer for the whole study (its constructor solves the read
  // stack per level); trials only read it, so sharing is safe.
  const QlcProgrammer programmer(config.qlc);
  const std::size_t n_levels = config.qlc.allocation.count();

  // One MC trial programs every level of the allocation as a single
  // CellBatch word — 16 lanes in lockstep with per-lane termination. Each
  // level draws on its own rng (device D2D, then SET rate / IrefR mismatch /
  // RST rate inside program_word).
  struct LevelSample {
    double resistance = 0.0;
    double energy = 0.0;
    double latency = 0.0;
  };
  using TrialSamples = std::vector<LevelSample>;

  const std::vector<TrialSamples> trials = mc::run_trials<TrialSamples>(
      config.mc.trials, config.mc.threads, [&](std::size_t t) {
        StudyWord word = sample_study_word(config, t);
        std::vector<oxram::FastCell*> cell_ptrs(n_levels);
        std::vector<Rng*> rng_ptrs(n_levels);
        for (std::size_t k = 0; k < n_levels; ++k) {
          cell_ptrs[k] = &word.cells[k];
          rng_ptrs[k] = &word.rngs[k];
        }
        const std::vector<ProgramOutcome> outcomes =
            programmer.program_word(cell_ptrs, word.levels, rng_ptrs);
        TrialSamples samples(n_levels);
        for (std::size_t k = 0; k < n_levels; ++k) {
          samples[k] = LevelSample{outcomes[k].resistance, outcomes[k].energy,
                                   outcomes[k].latency};
        }
        return samples;
      });

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
