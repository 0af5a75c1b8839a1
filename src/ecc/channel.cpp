#include "ecc/channel.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "mlc/retention.hpp"
#include "util/error.hpp"

namespace oxmlc::ecc {

double effective_cycles(std::uint64_t rotate_every_writes) {
  const double uniform = kLifetimeWrites / static_cast<double>(kWearRegionRows);
  const double hot = kHotRowShare * kLifetimeWrites;
  if (rotate_every_writes == 0) return hot;
  const double revolution = static_cast<double>(rotate_every_writes) *
                            static_cast<double>(kWearRegionRows);
  const double spread = std::min(1.0, kLifetimeWrites / revolution);
  return hot + spread * (uniform - hot);
}

WordTrial simulate_word(const ChannelConfig& config, const mlc::QlcProgrammer& programmer,
                        std::size_t cells, Rng& rng) {
  OXMLC_CHECK(cells > 0, "simulate_word: need at least one cell");
  const mlc::QlcConfig& qlc = programmer.config();
  const std::size_t n_levels = qlc.allocation.count();
  std::size_t scrub_events = 0;
  if (config.policy.scrub_period_s > 0.0) {
    scrub_events =
        static_cast<std::size_t>(kReadBackHorizon / config.policy.scrub_period_s);
    OXMLC_CHECK(scrub_events <= kMaxScrubEvents,
                "simulate_word: scrub period " + std::to_string(config.policy.scrub_period_s) +
                    " s implies " + std::to_string(scrub_events) + " events over the horizon " +
                    "(cap " + std::to_string(kMaxScrubEvents) + ")");
  }

  WordTrial trial;
  trial.target.resize(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    trial.target[i] = static_cast<std::size_t>(rng.uniform_index(n_levels));
  }

  // Wear first: the policy's rotation period fixes the cycle count every cell
  // has absorbed by read-back time, and the endurance model compresses the
  // sampled device window accordingly before anything is programmed.
  const auto cycles = static_cast<std::uint64_t>(
      std::llround(effective_cycles(config.policy.rotate_every_writes)));

  std::vector<oxram::FastCell> word_cells;
  std::vector<Rng> rngs;
  word_cells.reserve(cells);
  rngs.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    rngs.push_back(rng.split());
    const oxram::OxramParams fresh =
        oxram::sample_device(qlc.nominal_cell, qlc.variability, rngs.back());
    const oxram::OxramParams device = reliability::worn_params(fresh, config.endurance, cycles);
    word_cells.push_back(oxram::FastCell::formed_lrs(device, qlc.stack));
  }

  // Whole-word program through the batched terminated-RESET path.
  mlc::DriftingWord word(programmer, config.drift, config.read_disturb, std::move(word_cells),
                         std::move(rngs), trial.target);

  // Relaxation-aware verify: re-sense after mlc::kVerifyWait and re-terminate
  // cells whose tail relaxation event slipped them out of band.
  if (config.policy.relax_verify) {
    const mlc::DriftingWord::VerifyCounts verify = word.relax_verify(kVerifyPasses);
    trial.verify_reprograms = static_cast<std::uint32_t>(verify.reprogrammed);
  }

  // Scrub timeline: periodic read + compare, then one re-program of the
  // slipped cells per event.
  for (std::size_t event = 1; event <= scrub_events; ++event) {
    const double t = static_cast<double>(event) * config.policy.scrub_period_s;
    std::vector<std::size_t> slipped;
    for (std::size_t i = 0; i < cells; ++i) {
      if (word.sense(i, t) != trial.target[i]) slipped.push_back(i);
    }
    word.reprogram(slipped, t);
    trial.scrub_reprograms += static_cast<std::uint32_t>(slipped.size());
  }

  trial.observed.resize(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    trial.observed[i] = word.sense(i, kReadBackHorizon);
  }
  return trial;
}

std::vector<std::uint8_t> error_bits(const LevelCoder& coder,
                                     std::span<const std::size_t> target,
                                     std::span<const std::size_t> observed) {
  OXMLC_CHECK(target.size() == observed.size(),
              "error_bits: target/observed words differ in length");
  const std::size_t bits = coder.bits_per_cell();
  std::vector<std::uint8_t> errors(target.size() * bits);
  for (std::size_t cell = 0; cell < target.size(); ++cell) {
    const std::uint64_t flips =
        coder.symbol_for_level(target[cell]) ^ coder.symbol_for_level(observed[cell]);
    for (std::size_t b = 0; b < bits; ++b) {
      errors[cell * bits + b] = static_cast<std::uint8_t>((flips >> b) & 1u);
    }
  }
  return errors;
}

}  // namespace oxmlc::ecc
