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
                     std::size_t reads, const ReadDisturbModel& model) {
  if (!model.enabled || reads == 0) {
    return gap;
  }
  // At 0.3 V the bias-driven rate is many orders below the programming rate,
  // which is precisely why reads are cheap — but 1e6+ reads add up. The
  // compact model's accelerated barriers also produce a small V = 0 drift (a
  // time-scale artifact, see bench_ext_read_disturb/DESIGN.md) that is not
  // the read's fault, hence the bias-minus-rest difference.
  const oxram::StackOperatingPoint op =
      oxram::solve_stack(cell.params(), gap, cell.stack(), oxram::Polarity::kSet,
                         oxram::kReadVoltage, oxram::kReadWlVoltage);
  const double stress = static_cast<double>(reads) * kSenseDuration;
  const double g_bias = oxram::advance_gap(cell.params(), op.v_cell, gap, virgin, stress,
                                           cell.rate_factor());
  const double g_rest =
      oxram::advance_gap(cell.params(), 0.0, gap, virgin, stress, cell.rate_factor());
  return std::clamp(gap + (g_bias - g_rest), cell.params().g_min, cell.params().g_max);
}

oxram::OxramParams worn_params(const oxram::OxramParams& fresh, const EnduranceModel& model,
                               std::uint64_t cycles) {
  if (static_cast<double>(cycles) <= model.onset_cycles) {
    return fresh;
  }
  const double decades = std::log10(static_cast<double>(cycles) / model.onset_cycles);
  const double loss = std::min(kMaxWindowLoss, model.loss_per_decade * decades);
  const double window = fresh.g_max - fresh.g_min;
  oxram::OxramParams worn = fresh;
  worn.g_min = fresh.g_min + 0.5 * loss * window;
  worn.g_max = fresh.g_max - 0.5 * loss * window;
  return worn;
}

void DriftTrajectory::reanchor(const oxram::DriftParams& drift, double gap, double t,
                               Rng& rng) {
  anchor = gap;
  t_anchor = t;
  offset = 0.0;
  relax_amp = oxram::sample_relaxation_amplitude(drift, rng);
  if (!programmed) {
    // First program event of this cell: its slow-drift activation (the
    // per-device D2D quantity) follows the first per-event amplitude.
    drift_amp = oxram::sample_drift_amplitude(drift, rng);
    programmed = true;
  }
}

double DriftTrajectory::gap_at(const oxram::DriftParams& drift,
                               const oxram::OxramParams& params, double t) const {
  const double g =
      oxram::drifted_gap(drift, anchor, params.g_min, relax_amp, drift_amp, t - t_anchor);
  return std::clamp(g + offset, params.g_min, params.g_max);
}

ReliabilityEngine::ReliabilityEngine(array::FastArray& array, ReliabilityConfig config)
    : array_(array), config_(config) {
  const std::size_t n = array_.size();
  trajectories_.resize(n);
  cycles_.assign(n, 0);
  reads_.assign(n, 0);
  fresh_params_.reserve(n);
  rngs_.reserve(n);
  for (std::size_t row = 0; row < array_.rows(); ++row) {
    for (std::size_t col = 0; col < array_.cols(); ++col) {
      fresh_params_.push_back(array_.at(row, col).params());
      rngs_.push_back(cell_stream(config_.seed, index(row, col)));
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
  trajectories_[i].reanchor(config_.drift, cell.gap(), now_, rngs_[i]);
  ++cycles_[i];
  cell.mutable_params() = worn_params(fresh_params_[i], config_.endurance, cycles_[i]);
  ReliabilityMetrics::get().program_events.add();
}

void ReliabilityEngine::on_read(std::size_t row, std::size_t col) {
  apply_reads(row, col, 1);
}

void ReliabilityEngine::apply_reads(std::size_t row, std::size_t col, std::size_t n) {
  const std::size_t i = index(row, col);
  reads_[i] += n;
  if (!config_.read_disturb.enabled || n == 0) {
    return;
  }
  oxram::FastCell& cell = array_.at(row, col);
  const double g_before = cell.gap();
  const double g_after =
      disturbed_gap(cell, g_before, cell.virgin(), n, config_.read_disturb);
  trajectories_[i].offset += g_after - g_before;
  cell.set_gap(g_after);
  ReliabilityMetrics::get().reads_disturbed.add(n);
}

void ReliabilityEngine::advance(double dt) {
  OXMLC_CHECK(dt >= 0.0, "ReliabilityEngine::advance: dt must be non-negative");
  ReliabilityMetrics& metrics = ReliabilityMetrics::get();
  metrics.advances.add();
  obs::ScopedTimer timer(metrics.advance_time);

  now_ += dt;
  std::size_t advanced = 0;
  for (std::size_t row = 0; row < array_.rows(); ++row) {
    for (std::size_t col = 0; col < array_.cols(); ++col) {
      const DriftTrajectory& trajectory = trajectories_[row * array_.cols() + col];
      if (!trajectory.programmed) {
        continue;  // as-fabricated state is stationary; nothing to rewrite
      }
      oxram::FastCell& cell = array_.at(row, col);
      cell.set_gap(trajectory.gap_at(config_.drift, cell.params(), now_));
      ++advanced;
    }
  }
  metrics.lanes_advanced.add(advanced);
}

const DriftTrajectory& ReliabilityEngine::trajectory(std::size_t row, std::size_t col) const {
  return trajectories_[index(row, col)];
}
std::uint64_t ReliabilityEngine::cycles(std::size_t row, std::size_t col) const {
  return cycles_[index(row, col)];
}
std::uint64_t ReliabilityEngine::reads(std::size_t row, std::size_t col) const {
  return reads_[index(row, col)];
}

}  // namespace oxmlc::reliability
