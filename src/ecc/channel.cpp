#include "ecc/channel.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.hpp"

namespace oxmlc::ecc {

double effective_cycles(const WearLevelingModel& model,
                        std::uint64_t rotate_every_writes) {
  OXMLC_CHECK(model.region_rows > 0, "WearLevelingModel: region_rows must be > 0");
  const double uniform = model.lifetime_writes / static_cast<double>(model.region_rows);
  const double hot = model.hot_row_share * model.lifetime_writes;
  if (rotate_every_writes == 0) return hot;
  const double revolution = static_cast<double>(rotate_every_writes) *
                            static_cast<double>(model.region_rows);
  const double spread = std::min(1.0, model.lifetime_writes / revolution);
  return hot + spread * (uniform - hot);
}

namespace {

// Per-cell drift trajectory state, tracked exactly like a retention trial:
// anchor gap at the last program event plus event amplitudes, with the
// accumulated read-disturb shift carried as an additive offset.
struct CellState {
  oxram::FastCell cell;
  Rng rng;
  double anchor = 0.0;
  double relax_amp = 0.0;
  double drift_amp = 0.0;
  double t_anchor = 0.0;
  double offset = 0.0;

  double gap_at(const oxram::DriftParams& drift, double t_abs) const {
    const double g = oxram::drifted_gap(drift, anchor, cell.params().g_min, relax_amp,
                                        drift_amp, std::max(t_abs - t_anchor, 0.0));
    return std::clamp(g + offset, cell.params().g_min, cell.params().g_max);
  }

  void reprogrammed(const oxram::DriftParams& drift, double t_abs) {
    anchor = cell.gap();
    t_anchor = t_abs;
    offset = 0.0;
    relax_amp = oxram::sample_relaxation_amplitude(drift, rng);
  }
};

// Advances to time `t`, bills one sense of disturb, and decodes. Leaves the
// cell's gap at the post-sense state.
std::size_t sense_at(CellState& state, const ChannelConfig& config,
                     const mlc::QlcProgrammer& programmer, double t) {
  double g = state.gap_at(config.drift, t);
  const double g_disturbed = reliability::disturbed_gap(
      state.cell, g, /*virgin=*/false, 1, config.read_disturb, config.study.qlc.v_read,
      config.study.qlc.v_wl_read);
  state.offset += g_disturbed - g;
  state.cell.set_gap(g_disturbed);
  return programmer.read_level(state.cell, state.rng);
}

}  // namespace

WordTrial simulate_word(const ChannelConfig& config, const mlc::QlcProgrammer& programmer,
                        std::size_t cells, Rng& rng) {
  OXMLC_CHECK(cells > 0, "simulate_word: need at least one cell");
  const std::size_t n_levels = config.study.qlc.allocation.count();
  std::size_t scrub_events = 0;
  if (config.policy.scrub_period_s > 0.0) {
    scrub_events = static_cast<std::size_t>(config.horizon_s / config.policy.scrub_period_s);
    OXMLC_CHECK(scrub_events <= config.max_scrub_events,
                "simulate_word: scrub period " + std::to_string(config.policy.scrub_period_s) +
                    " s implies " + std::to_string(scrub_events) + " events over the horizon " +
                    "(cap " + std::to_string(config.max_scrub_events) + ")");
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
      std::llround(effective_cycles(config.wear, config.policy.rotate_every_writes)));

  std::vector<CellState> states;
  states.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    Rng cell_rng = rng.split();
    const oxram::OxramParams fresh =
        oxram::sample_device(config.study.nominal, config.study.variability, cell_rng);
    const oxram::OxramParams device = reliability::worn_params(fresh, config.endurance, cycles);
    states.push_back({oxram::FastCell::formed_lrs(device, config.study.stack),
                      std::move(cell_rng), 0.0, 0.0, 0.0, 0.0, 0.0});
  }

  // Whole-word program through the batched terminated-RESET path (each cell
  // ends bitwise where program() alone would put it, per the program_word
  // contract).
  {
    std::vector<oxram::FastCell*> cell_ptrs(cells);
    std::vector<Rng*> rng_ptrs(cells);
    for (std::size_t i = 0; i < cells; ++i) {
      cell_ptrs[i] = &states[i].cell;
      rng_ptrs[i] = &states[i].rng;
    }
    programmer.program_word(cell_ptrs, trial.target, rng_ptrs);
  }
  for (CellState& state : states) {
    state.anchor = state.cell.gap();
    state.relax_amp = oxram::sample_relaxation_amplitude(config.drift, state.rng);
    state.drift_amp = oxram::sample_drift_amplitude(config.drift, state.rng);
  }

  // Relaxation-aware verify: re-sense after tau_relax and re-terminate cells
  // whose tail relaxation event slipped them out of band.
  if (config.policy.relax_verify) {
    for (std::size_t i = 0; i < cells; ++i) {
      CellState& state = states[i];
      double t_now = 0.0;
      for (std::size_t pass = 0; pass < config.verify_max_passes; ++pass) {
        t_now += config.tau_relax;
        if (sense_at(state, config, programmer, t_now) == trial.target[i]) break;
        if (pass + 1 == config.verify_max_passes) break;  // out of budget
        programmer.program(state.cell, trial.target[i], state.rng);
        ++trial.verify_reprograms;
        state.reprogrammed(config.drift, t_now);
      }
    }
  }

  // Scrub timeline: periodic read + compare + re-program of slipped cells.
  for (std::size_t event = 1; event <= scrub_events; ++event) {
    const double t = static_cast<double>(event) * config.policy.scrub_period_s;
    for (std::size_t i = 0; i < cells; ++i) {
      CellState& state = states[i];
      if (sense_at(state, config, programmer, t) == trial.target[i]) continue;
      programmer.program(state.cell, trial.target[i], state.rng);
      ++trial.scrub_reprograms;
      state.reprogrammed(config.drift, t);
    }
  }

  trial.observed.resize(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    trial.observed[i] = sense_at(states[i], config, programmer, config.horizon_s);
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
