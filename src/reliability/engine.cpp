#include "reliability/engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"
#include "oxram/model.hpp"
#include "util/error.hpp"

namespace oxmlc::reliability {
namespace {

struct ReliabilityMetrics {
  obs::Counter& advances = obs::registry().counter("reliability.advances");
  obs::Counter& lanes_advanced = obs::registry().counter("reliability.lanes_advanced");
  obs::Counter& reads_disturbed = obs::registry().counter("reliability.reads_disturbed");
  obs::Counter& program_events = obs::registry().counter("reliability.program_events");
  obs::Timer& advance_time = obs::registry().timer("reliability.advance_time");

  static ReliabilityMetrics& get() {
    static ReliabilityMetrics metrics;
    return metrics;
  }
};

// Per-cell amplitude stream: same construction style as FastArray's
// position-derived streams — deterministic given (seed, cell index),
// independent of access order.
Rng cell_stream(std::uint64_t seed, std::size_t cell_index) {
  return Rng(seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(cell_index) + 1)));
}

}  // namespace

double disturbed_gap(const oxram::FastCell& cell, double gap, bool virgin,
                     std::size_t reads, const ReadDisturbModel& model, double v_read,
                     double v_wl) {
  if (!model.enabled || reads == 0) {
    return gap;
  }
  // At 0.3 V the bias-driven rate is many orders below the programming rate,
  // which is precisely why reads are cheap — but 1e6+ reads or an
  // accelerated stress budget add up. The compact model's accelerated
  // barriers also produce a small V = 0 drift (a time-scale artifact, see
  // bench_ext_read_disturb/DESIGN.md) that is not the read's fault, hence
  // the bias-minus-rest difference.
  const oxram::StackOperatingPoint op = oxram::solve_stack(
      cell.params(), gap, cell.stack(), oxram::Polarity::kSet, v_read, v_wl);
  const double stress = static_cast<double>(reads) * model.t_read * model.accel;
  const double g_bias = oxram::advance_gap(cell.params(), op.v_cell, gap, virgin, stress,
                                           cell.rate_factor());
  const double g_rest =
      oxram::advance_gap(cell.params(), 0.0, gap, virgin, stress, cell.rate_factor());
  return std::clamp(gap + (g_bias - g_rest), cell.params().g_min, cell.params().g_max);
}

oxram::OxramParams worn_params(const oxram::OxramParams& fresh, const EnduranceModel& model,
                               std::uint64_t cycles) {
  if (!model.enabled || static_cast<double>(cycles) <= model.onset_cycles) {
    return fresh;
  }
  const double decades = std::log10(static_cast<double>(cycles) / model.onset_cycles);
  const double loss = std::min(model.max_window_loss, model.loss_per_decade * decades);
  const double window = fresh.g_max - fresh.g_min;
  oxram::OxramParams worn = fresh;
  worn.g_min = fresh.g_min + 0.5 * loss * window;
  worn.g_max = fresh.g_max - 0.5 * loss * window;
  return worn;
}

ReliabilityEngine::ReliabilityEngine(array::FastArray& array, ReliabilityConfig config)
    : array_(array), config_(config) {
  const std::size_t n = array_.size();
  anchor_gap_.resize(n);
  g_min_.resize(n);
  t_elapsed_.assign(n, 0.0);
  relax_amp_.assign(n, 0.0);
  drift_amp_.assign(n, 0.0);
  disturb_offset_.assign(n, 0.0);
  cycles_.assign(n, 0);
  reads_.assign(n, 0);
  programmed_.assign(n, 0);
  fresh_params_.reserve(n);
  rngs_.reserve(n);
  scratch_.resize(n);
  for (std::size_t row = 0; row < array_.rows(); ++row) {
    for (std::size_t col = 0; col < array_.cols(); ++col) {
      const std::size_t i = index(row, col);
      const oxram::FastCell& cell = array_.at(row, col);
      anchor_gap_[i] = cell.gap();
      g_min_[i] = cell.params().g_min;
      fresh_params_.push_back(cell.params());
      rngs_.push_back(cell_stream(config_.seed, i));
    }
  }
}

std::size_t ReliabilityEngine::index(std::size_t row, std::size_t col) const {
  OXMLC_CHECK(row < array_.rows() && col < array_.cols(),
              "ReliabilityEngine: cell index out of range");
  return row * array_.cols() + col;
}

void ReliabilityEngine::on_programmed(std::size_t row, std::size_t col) {
  const std::size_t i = index(row, col);
  oxram::FastCell& cell = array_.at(row, col);
  if (!programmed_[i]) {
    // First program event of this cell: draw its slow-drift activation (the
    // per-device D2D quantity) before the first per-event amplitude.
    drift_amp_[i] = oxram::sample_drift_amplitude(config_.drift, rngs_[i]);
    programmed_[i] = 1;
  }
  relax_amp_[i] = oxram::sample_relaxation_amplitude(config_.drift, rngs_[i]);
  anchor_gap_[i] = cell.gap();
  t_elapsed_[i] = 0.0;
  disturb_offset_[i] = 0.0;
  ++cycles_[i];
  if (config_.endurance.enabled) {
    const oxram::OxramParams worn = worn_params(fresh_params_[i], config_.endurance, cycles_[i]);
    cell.mutable_params() = worn;
    g_min_[i] = worn.g_min;
  }
  ReliabilityMetrics::get().program_events.add();
}

void ReliabilityEngine::on_read(std::size_t row, std::size_t col, double v_read, double v_wl) {
  apply_reads(row, col, 1, v_read, v_wl);
}

void ReliabilityEngine::apply_reads(std::size_t row, std::size_t col, std::size_t n,
                                    double v_read, double v_wl) {
  const std::size_t i = index(row, col);
  reads_[i] += n;
  if (!config_.read_disturb.enabled || n == 0) {
    return;
  }
  oxram::FastCell& cell = array_.at(row, col);
  const double g_before = cell.gap();
  const double g_after = disturbed_gap(cell, g_before, cell.virgin(), n,
                                       config_.read_disturb, v_read, v_wl);
  disturb_offset_[i] += g_after - g_before;
  cell.set_gap(g_after);
  ReliabilityMetrics::get().reads_disturbed.add(n);
}

void ReliabilityEngine::advance(double dt) {
  OXMLC_CHECK(dt >= 0.0, "ReliabilityEngine::advance: dt must be non-negative");
  ReliabilityMetrics& metrics = ReliabilityMetrics::get();
  metrics.advances.add();
  obs::ScopedTimer timer(metrics.advance_time);

  const std::size_t n = array_.size();
  for (std::size_t i = 0; i < n; ++i) {
    t_elapsed_[i] += dt;
  }
  oxram::drifted_gap_batch(config_.drift, anchor_gap_, g_min_, relax_amp_, drift_amp_,
                           t_elapsed_, scratch_);
  std::size_t advanced = 0;
  for (std::size_t row = 0; row < array_.rows(); ++row) {
    for (std::size_t col = 0; col < array_.cols(); ++col) {
      const std::size_t i = row * array_.cols() + col;
      if (!programmed_[i]) {
        continue;  // as-fabricated state is stationary; nothing to rewrite
      }
      oxram::FastCell& cell = array_.at(row, col);
      const double g = std::clamp(scratch_[i] + disturb_offset_[i], g_min_[i],
                                  cell.params().g_max);
      cell.set_gap(g);
      ++advanced;
    }
  }
  metrics.lanes_advanced.add(advanced);
}

double ReliabilityEngine::scalar_reference_gap(std::size_t row, std::size_t col,
                                               double t_since_anchor) const {
  const std::size_t i = index(row, col);
  const double g = oxram::drifted_gap(config_.drift, anchor_gap_[i], g_min_[i], relax_amp_[i],
                                      drift_amp_[i], t_since_anchor);
  return std::clamp(g + disturb_offset_[i], g_min_[i], array_.at(row, col).params().g_max);
}

bool ReliabilityEngine::programmed(std::size_t row, std::size_t col) const {
  return programmed_[index(row, col)] != 0;
}
double ReliabilityEngine::anchor_gap(std::size_t row, std::size_t col) const {
  return anchor_gap_[index(row, col)];
}
double ReliabilityEngine::elapsed_since_anchor(std::size_t row, std::size_t col) const {
  return t_elapsed_[index(row, col)];
}
double ReliabilityEngine::relax_amplitude(std::size_t row, std::size_t col) const {
  return relax_amp_[index(row, col)];
}
double ReliabilityEngine::drift_amplitude(std::size_t row, std::size_t col) const {
  return drift_amp_[index(row, col)];
}
double ReliabilityEngine::disturb_offset(std::size_t row, std::size_t col) const {
  return disturb_offset_[index(row, col)];
}
std::uint64_t ReliabilityEngine::cycles(std::size_t row, std::size_t col) const {
  return cycles_[index(row, col)];
}
std::uint64_t ReliabilityEngine::reads(std::size_t row, std::size_t col) const {
  return reads_[index(row, col)];
}

}  // namespace oxmlc::reliability
