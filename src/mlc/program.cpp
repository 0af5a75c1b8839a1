#include "mlc/program.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/registry.hpp"
#include "oxram/batch_kernel.hpp"
#include "util/error.hpp"

namespace oxmlc::mlc {
namespace {

// Per-level program telemetry. Levels are few (<= 64 for the 6-bit
// projection), so the name table is built lazily per level value.
struct ProgramLevelMetrics {
  obs::Counter& pulses;
  obs::Counter& terminated;
  obs::Counter& timeouts;

  static ProgramLevelMetrics get(std::size_t level) {
    obs::Registry& reg = obs::registry();
    return ProgramLevelMetrics{reg.counter("mlc.program.level", level, ".pulses"),
                               reg.counter("mlc.program.level", level, ".terminated"),
                               reg.counter("mlc.program.level", level, ".timeouts")};
  }
};

struct ProgramMetrics {
  obs::Counter& operations = obs::registry().counter("mlc.program.operations");
  // RST latency (termination crossing time) in microseconds: the Fig. 13b
  // quantity; the paper's span is ~0.4-4 us, the config plateau 12 us.
  obs::Histogram& latency_us =
      obs::registry().histogram("mlc.program.latency_us", 0.0, 12.0, 48);
  obs::Timer& program_time = obs::registry().timer("mlc.program.time");

  static ProgramMetrics& get() {
    static ProgramMetrics metrics;
    return metrics;
  }
};

struct VerifyMetrics {
  obs::Counter& operations = obs::registry().counter("mlc.verify.operations");
  obs::Counter& reads = obs::registry().counter("mlc.verify.reads");
  obs::Counter& pulses = obs::registry().counter("mlc.verify.pulses");
  obs::Counter& set_retries = obs::registry().counter("mlc.verify.set_retries");
  obs::Counter& gave_up = obs::registry().counter("mlc.verify.gave_up");

  static VerifyMetrics& get() {
    static VerifyMetrics metrics;
    return metrics;
  }
};

}  // namespace

QlcConfig QlcConfig::paper_default(std::size_t bits, std::size_t curve_points) {
  QlcConfig config;
  config.reset_op.pulse.width = 12e-6;  // cover the slowest 6 uA C2C tail (paper worst ~4 us)
  config.allocation = LevelAllocation::iso_delta_i(
      bits, kPaperIrefMin, kPaperIrefMax,
      build_calibration_curve(config, kPaperIrefMin, kPaperIrefMax, curve_points));
  return config;
}

CalibrationCurve build_calibration_curve(const QlcConfig& config, double i_min, double i_max,
                                         std::size_t points) {
  OXMLC_CHECK(points >= 2, "calibration curve needs at least two points");
  std::vector<double> irefs, resistances;
  for (std::size_t k = 0; k < points; ++k) {
    const double iref =
        i_min + (i_max - i_min) * static_cast<double>(k) / static_cast<double>(points - 1);
    oxram::FastCell cell = oxram::FastCell::formed_lrs(config.nominal_cell, config.stack);
    cell.apply_set(config.set_op);
    oxram::ResetOperation reset = config.reset_op;
    reset.iref = iref;
    cell.apply_reset(reset);
    irefs.push_back(iref);
    resistances.push_back(cell.read().r_cell);
  }
  return CalibrationCurve(std::move(irefs), std::move(resistances));
}

QlcProgrammer::QlcProgrammer(QlcConfig config) : config_(std::move(config)) {
  OXMLC_CHECK(!config_.allocation.levels.empty(), "QlcProgrammer: empty allocation");
  // Read references: geometric mean of the nominal read currents of adjacent
  // levels (Fig. 9: "located in between the current provided by two
  // consecutive memory states"). Each level's nominal current is measured
  // through the full read stack — access device included — on a nominal cell
  // placed at the level's resistance; a bare V/R estimate would sit one
  // access-drop too high and bias every decode by a level.
  const auto& levels = config_.allocation.levels;
  std::vector<double> level_currents;
  for (const Level& level : levels) {
    OXMLC_CHECK(level.r_nominal > 0.0,
                "QlcProgrammer: allocation lacks nominal resistances (no calibration curve)");
    const double gap =
        gap_for_resistance(config_.nominal_cell, oxram::kReadVoltage, level.r_nominal);
    const oxram::FastCell probe(config_.nominal_cell, config_.stack, gap);
    level_currents.push_back(probe.read().current);
  }
  for (std::size_t v = 0; v + 1 < levels.size(); ++v) {
    read_references_.push_back(std::sqrt(level_currents[v] * level_currents[v + 1]));
  }
  std::sort(read_references_.begin(), read_references_.end());
}

ProgramOutcome QlcProgrammer::program(oxram::FastCell& cell, std::size_t level,
                                      Rng& rng) const {
  oxram::FastCell* const cells[] = {&cell};
  const std::size_t levels[] = {level};
  Rng* const rngs[] = {&rng};
  return program_word(cells, levels, rngs).front();
}

std::vector<ProgramOutcome> QlcProgrammer::program_word(
    std::span<oxram::FastCell* const> cells, std::span<const std::size_t> levels,
    std::span<Rng* const> rngs) const {
  OXMLC_CHECK(cells.size() == levels.size() && cells.size() == rngs.size(),
              "QlcProgrammer: program_word spans must have equal length");
  const std::size_t n = cells.size();
  std::vector<ProgramOutcome> outcomes(n);
  if (n == 0) return outcomes;

  ProgramMetrics& metrics = ProgramMetrics::get();
  metrics.operations.add(n);
  obs::ScopedTimer op_timer(metrics.program_time);

  // Draw every cell's stochastic conditions up front, in a fixed order per
  // rng: SET rate factor, effective IrefR, RST rate factor. Each cell's
  // stream is then independent of the word it is programmed in.
  std::vector<double> rate_set(n), rate_rst(n);
  for (std::size_t k = 0; k < n; ++k) {
    OXMLC_CHECK(levels[k] < config_.allocation.count(),
                "QlcProgrammer: level out of range");
    outcomes[k].level = levels[k];
    rate_set[k] = sample_cycle_rate_factor(config_.variability, *rngs[k]);
    outcomes[k].effective_iref = config_.termination.sample_effective_iref(
        config_.allocation.levels[levels[k]].iref, *rngs[k]);
    rate_rst[k] = sample_cycle_rate_factor(config_.variability, *rngs[k]);
  }

  // Word programming step 1 (§4.2): the whole word is SET in one batch.
  oxram::CellBatch batch;
  for (std::size_t k = 0; k < n; ++k) {
    cells[k]->set_rate_factor(rate_set[k]);
    batch.add_set(*cells[k], config_.set_op);
  }
  const std::vector<oxram::OperationResult> set_results = batch.run();

  // Step 2: one parallel RST; each lane's termination masks it out when its
  // cell current reaches that bit line's reference.
  batch.clear();
  for (std::size_t k = 0; k < n; ++k) {
    oxram::ResetOperation reset = config_.reset_op;
    reset.iref = outcomes[k].effective_iref;
    cells[k]->set_rate_factor(rate_rst[k]);
    batch.add_reset(*cells[k], reset);
  }
  const std::vector<oxram::OperationResult> reset_results = batch.run();

  for (std::size_t k = 0; k < n; ++k) {
    outcomes[k].set_energy = set_results[k].energy_source;
    outcomes[k].terminated = reset_results[k].terminated;
    outcomes[k].latency = reset_results[k].t_terminate;
    outcomes[k].energy = reset_results[k].energy_source;
    outcomes[k].resistance = cells[k]->read().r_cell;

    const ProgramLevelMetrics level_metrics = ProgramLevelMetrics::get(levels[k]);
    level_metrics.pulses.add(outcomes[k].pulses);
    (outcomes[k].terminated ? level_metrics.terminated : level_metrics.timeouts).add();
    metrics.latency_us.observe(outcomes[k].latency * 1e6);
  }
  return outcomes;
}

std::size_t QlcProgrammer::read_level(const oxram::FastCell& cell, Rng& rng) const {
  const oxram::ReadResult read = cell.read();
  const std::size_t band =
      array::decode_band(read.current, read_references_, config_.sense, rng);
  // band = number of references the current exceeds; the shallowest level
  // (value 0) carries the highest current and exceeds all of them.
  return (config_.allocation.count() - 1) - band;
}

// ---------------------------------------------------------------------------
// VRST-amplitude baseline
// ---------------------------------------------------------------------------

VrstPulseBaseline::VrstPulseBaseline(const QlcConfig& config)
    : reset_template_(config.reset_op), set_template_(config.set_op),
      variability_(config.variability) {
  reset_template_.iref.reset();  // open loop: no termination
  // The amplitude-mode prior art ([8,12,39,40]) applies short fixed-width
  // pulses whose amplitude selects the level; a termination-scheme-length
  // plateau would saturate every level at any amplitude.
  reset_template_.pulse.width = 200e-9;
  reset_template_.v_wl = oxram::kCellResetWlVoltage;
  // Calibrate one amplitude per level on the nominal cell (bisection; the
  // post-pulse resistance increases monotonically with amplitude).
  for (const Level& level : config.allocation.levels) {
    OXMLC_CHECK(level.r_nominal > 0.0, "VrstPulseBaseline: allocation lacks nominal R");
    double lo = 0.5, hi = 2.2;
    for (int iter = 0; iter < 24; ++iter) {
      const double mid = 0.5 * (lo + hi);
      oxram::FastCell cell = oxram::FastCell::formed_lrs(config.nominal_cell, config.stack);
      cell.apply_set(set_template_);
      oxram::ResetOperation reset = reset_template_;
      reset.pulse.amplitude = mid;
      cell.apply_reset(reset);
      if (cell.read().r_cell < level.r_nominal) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    amplitudes_.push_back(0.5 * (lo + hi));
  }
}

ProgramOutcome VrstPulseBaseline::program(oxram::FastCell& cell, std::size_t level,
                                          Rng& rng) const {
  OXMLC_CHECK(level < amplitudes_.size(), "VrstPulseBaseline: level out of range");
  ProgramOutcome outcome;
  outcome.level = level;

  // The baseline sees the same stochastic device as the termination scheme.
  cell.set_rate_factor(sample_cycle_rate_factor(variability_, rng));
  outcome.set_energy = cell.apply_set(set_template_).energy_source;

  oxram::ResetOperation reset = reset_template_;
  reset.pulse.amplitude = amplitudes_[level];
  cell.set_rate_factor(sample_cycle_rate_factor(variability_, rng));
  const oxram::OperationResult result = cell.apply_reset(reset);
  outcome.latency = result.t_terminate;  // = full pulse width (no termination)
  outcome.energy = result.energy_source;
  outcome.resistance = cell.read().r_cell;
  outcome.terminated = false;
  return outcome;
}

// ---------------------------------------------------------------------------
// Program-and-verify baseline
// ---------------------------------------------------------------------------

ProgramAndVerifyBaseline::ProgramAndVerifyBaseline(const QlcConfig& config)
    : allocation_(config.allocation), reset_template_(config.reset_op),
      set_template_(config.set_op), variability_(config.variability) {
  reset_template_.iref.reset();
  reset_template_.pulse.width = kVerifySliceWidth;
  // Gentle incremental slices: the staircase needs each pulse to move the
  // state by a fraction of a level, not to blow through the whole window.
  reset_template_.pulse.amplitude = 1.1;
  reset_template_.v_wl = oxram::kCellResetWlVoltage;
}

ProgramOutcome ProgramAndVerifyBaseline::program(oxram::FastCell& cell, std::size_t level,
                                                 Rng& rng) const {
  OXMLC_CHECK(level < allocation_.count(), "ProgramAndVerify: level out of range");
  const double target = allocation_.levels[level].r_nominal;
  OXMLC_CHECK(target > 0.0, "ProgramAndVerify: allocation lacks nominal R");
  const double lo_band = target * (1.0 - kVerifyBandTolerance);
  const double hi_band = target * (1.0 + kVerifyBandTolerance);

  VerifyMetrics& metrics = VerifyMetrics::get();
  metrics.operations.add();

  ProgramOutcome outcome;
  outcome.level = level;
  outcome.pulses = 0;

  cell.set_rate_factor(sample_cycle_rate_factor(variability_, rng));
  outcome.set_energy = cell.apply_set(set_template_).energy_source;
  outcome.latency += set_template_.pulse.rise + set_template_.pulse.width +
                     set_template_.pulse.fall;

  for (std::size_t pulse = 0; pulse < kVerifyMaxPulses; ++pulse) {
    const double r = cell.read().r_cell;
    metrics.reads.add();
    outcome.energy += kVerifyReadEnergy;
    outcome.latency += 50e-9;  // verify-read cycle time
    if (r >= lo_band && r <= hi_band) {
      outcome.terminated = true;
      break;
    }
    ++outcome.pulses;
    metrics.pulses.add();
    cell.set_rate_factor(sample_cycle_rate_factor(variability_, rng));
    if (r > hi_band) {
      // Overshoot: recover through SET and restart the staircase.
      metrics.set_retries.add();
      const auto set_result = cell.apply_set(set_template_);
      outcome.energy += set_result.energy_source;
      outcome.latency += set_template_.pulse.rise + set_template_.pulse.width +
                         set_template_.pulse.fall;
    } else {
      const auto slice = cell.apply_reset(reset_template_);
      outcome.energy += slice.energy_source;
      outcome.latency += kVerifySliceWidth + reset_template_.pulse.rise +
                         reset_template_.pulse.fall;
    }
  }
  if (!outcome.terminated) metrics.gave_up.add();
  outcome.resistance = cell.read().r_cell;
  return outcome;
}

// ---------------------------------------------------------------------------
// IC-SET baseline
// ---------------------------------------------------------------------------

IcSetBaseline::IcSetBaseline(std::size_t levels, const QlcConfig& config)
    : set_template_(config.set_op), variability_(config.variability) {
  OXMLC_CHECK(levels >= 2 && levels <= 8, "IcSetBaseline: levels must be in [2, 8]");
  // Target LRS resistances geometrically spaced above the full-compliance LRS.
  const oxram::OxramParams& nominal = config.nominal_cell;
  oxram::FastCell probe = oxram::FastCell::formed_lrs(nominal, config.stack);
  probe.apply_set(set_template_);
  const double r_floor = probe.read().r_cell;
  for (std::size_t k = 0; k < levels; ++k) {
    const double target = r_floor * std::pow(3.0, static_cast<double>(k) /
                                                      static_cast<double>(levels - 1));
    // Lower WL voltage -> lower compliance -> higher LRS resistance.
    double lo = 0.75, hi = set_template_.v_wl;
    for (int iter = 0; iter < 24; ++iter) {
      const double mid = 0.5 * (lo + hi);
      oxram::FastCell cell(nominal, config.stack, nominal.g_max, /*virgin=*/false);
      oxram::SetOperation op = set_template_;
      op.v_wl = mid;
      cell.apply_set(op);
      if (cell.read().r_cell > target) {
        lo = mid;  // too resistive: raise compliance
      } else {
        hi = mid;
      }
    }
    wl_voltages_.push_back(0.5 * (lo + hi));
  }
}

ProgramOutcome IcSetBaseline::program(oxram::FastCell& cell, std::size_t level,
                                      Rng& rng) const {
  OXMLC_CHECK(level < wl_voltages_.size(), "IcSetBaseline: level out of range");
  ProgramOutcome outcome;
  outcome.level = level;
  cell.set_rate_factor(sample_cycle_rate_factor(variability_, rng));
  // Start from a RESET state, then SET with the level's compliance.
  oxram::ResetOperation reset;
  const auto reset_result = cell.apply_reset(reset);
  oxram::SetOperation op = set_template_;
  op.v_wl = wl_voltages_[level];
  cell.set_rate_factor(sample_cycle_rate_factor(variability_, rng));
  const auto set_result = cell.apply_set(op);
  outcome.energy = reset_result.energy_source + set_result.energy_source;
  outcome.latency = reset_result.t_end + set_result.t_end;
  outcome.resistance = cell.read().r_cell;
  return outcome;
}

}  // namespace oxmlc::mlc
