#include "oxram/batch_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/registry.hpp"
#include "util/parallel_for.hpp"

namespace oxmlc::oxram {
namespace {

struct BatchMetrics {
  obs::Counter& runs = obs::registry().counter("batch.runs");
  obs::Counter& lanes = obs::registry().counter("batch.lanes");
  obs::Counter& steps = obs::registry().counter("batch.steps");
  obs::Gauge& throughput = obs::registry().gauge("batch.cells_per_second");
  obs::Timer& run_time = obs::registry().timer("batch.run_time");

  static BatchMetrics& get() {
    static BatchMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::size_t CellBatch::add_reset(FastCell& cell, const ResetOperation& op) {
  return add_lane(cell, op.pulse, Polarity::kReset, op.v_wl,
                  /*through_mirror=*/op.iref.has_value(), op.iref.value_or(-1.0),
                  op.dt_max);
}

std::size_t CellBatch::add_set(FastCell& cell, const SetOperation& op) {
  return add_lane(cell, op.pulse, Polarity::kSet, op.v_wl, /*through_mirror=*/false,
                  -1.0, op.dt_max);
}

std::size_t CellBatch::add_lane(FastCell& cell, const PulseShape& pulse,
                                Polarity polarity, double v_wl, bool through_mirror,
                                double iref, double dt_max) {
  const std::size_t lane = gap_.size();

  gap_.push_back(cell.gap());
  warm_i_.push_back(0.0);
  warm_v_.push_back(0.0);
  rate_factor_.push_back(cell.rate_factor());
  params_.push_back(cell.params());
  StackConfig stack = cell.stack();
  stack.bl_through_mirror = through_mirror;
  stacks_.push_back(stack);
  cells_.push_back(&cell);

  LaneControl control;
  control.pulse = pulse;
  spice::PulseSpec spec;
  spec.v1 = 0.0;
  spec.v2 = pulse.amplitude;
  spec.delay = 0.0;
  spec.rise = pulse.rise;
  spec.fall = pulse.fall;
  spec.width = pulse.width;
  control.natural = spice::PulseWaveform(spec);
  control.polarity = polarity;
  control.v_wl = v_wl;
  control.dt_max = dt_max;
  control.iref = iref;
  control.natural_end = pulse.rise + pulse.width + pulse.fall;
  control.t_end = control.natural_end;
  control.virgin = cell.virgin();
  control_.push_back(control);
  return lane;
}

double CellBatch::drive_value(const LaneControl& lane, double t) const {
  // Natural trapezoid until a termination command; afterwards the drive ramps
  // down from its value at the command instant (same as the reference stepper).
  if (lane.ramp_start < 0.0 || t <= lane.ramp_start) return lane.natural.value(t);
  const double into = t - lane.ramp_start;
  if (into >= lane.pulse.fall) return 0.0;
  return lane.ramp_from * (1.0 - into / lane.pulse.fall);
}

void CellBatch::finalize_lane(std::size_t lane) {
  LaneControl& c = control_[lane];
  OperationResult& result = results_[lane];
  result.t_end = c.t_end;
  if (!result.terminated) result.t_terminate = c.natural_end;
  result.final_gap = gap_[lane];
  cells_[lane]->set_gap(gap_[lane]);
  cells_[lane]->set_virgin(c.virgin);
}

void CellBatch::update_sample(std::size_t lane, double v_d, double current,
                              double v_cell) {
  LaneControl& c = control_[lane];
  OperationResult& result = results_[lane];

  // Trapezoidal energy accumulation.
  if (!c.first_sample) {
    const double dt_seg = c.t - c.prev_t;
    result.energy_source += 0.5 * (c.prev_p_src + v_d * current) * dt_seg;
    result.energy_cell += 0.5 * (c.prev_p_cell + v_cell * current) * dt_seg;
  }
  c.prev_p_src = v_d * current;
  c.prev_p_cell = v_cell * current;

  // Termination detection (plateau only, falling crossing or already-below).
  if (c.iref >= 0.0 && !result.terminated && c.t >= c.pulse.rise && c.ramp_start < 0.0) {
    if (current <= c.iref) {
      // Linear interpolation to the crossing inside the last step.
      double t_cross = c.t;
      if (!c.first_sample && c.prev_i > c.iref) {
        t_cross = c.prev_t +
                  (c.t - c.prev_t) * (c.prev_i - c.iref) / (c.prev_i - current);
      }
      result.terminated = true;
      result.t_terminate = t_cross;
      c.ramp_start = t_cross + kTerminationDelay;
      c.ramp_from = drive_value(c, c.ramp_start);
      c.t_end = std::min(c.t_end, c.ramp_start + c.pulse.fall);
    }
  }
  c.prev_i = current;
  c.prev_t = c.t;
  c.first_sample = false;
}

CellBatch::StepPolicy CellBatch::step_policy(const LaneControl& c,
                                             const OperationResult& result,
                                             double current) const {
  // Near the termination crossing the step is refined so the gap moves only a
  // sliver of g0 per step (identical policy to the reference stepper).
  StepPolicy policy{0.1, c.dt_max};
  if (c.iref >= 0.0 && !result.terminated && current > 0.0 && current < 2.0 * c.iref) {
    policy.gap_fraction = 0.004;
    policy.dt_cap = std::min(policy.dt_cap, 5e-9);
  }
  return policy;
}

double CellBatch::apply_corners(const LaneControl& c, double dt) const {
  // Land on waveform corners so the plateau entry/exit are resolved.
  for (double corner : {c.pulse.rise, c.pulse.rise + c.pulse.width, c.ramp_start,
                        c.ramp_start >= 0.0 ? c.ramp_start + c.pulse.fall : -1.0,
                        c.t_end}) {
    if (corner > c.t + 1e-15 && corner < c.t + dt) dt = corner - c.t;
  }
  return std::max(dt, 1e-13);
}

std::vector<OperationResult> CellBatch::run(const BatchRunOptions& options) {
  BatchMetrics& metrics = BatchMetrics::get();
  metrics.runs.add();
  metrics.lanes.add(size());
  obs::ScopedTimer run_timer(metrics.run_time);
  const auto start = std::chrono::steady_clock::now();

  results_.assign(size(), OperationResult{});
  for (std::size_t lane = 0; lane < size(); ++lane) results_[lane].final_gap = gap_[lane];

  const num::simd::Backend backend = num::simd::active_backend();
  prepare_scratch();

  // Lanes touch disjoint state, so sharding them over the pool is
  // bit-identical to the serial sweep for any thread count or chunking.
  std::atomic<std::uint64_t> steps{0};
  util::parallel_for(size(), options.threads, [&](std::size_t begin, std::size_t end) {
    steps.fetch_add(run_span(begin, end, backend), std::memory_order_relaxed);
  });
  metrics.steps.add(steps.load(std::memory_order_relaxed));

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (elapsed > 0.0 && !gap_.empty()) {
    metrics.throughput.set(static_cast<double>(gap_.size()) / elapsed);
  }
  return std::move(results_);
}

void CellBatch::clear() {
  gap_.clear();
  warm_i_.clear();
  warm_v_.clear();
  rate_factor_.clear();
  params_.clear();
  stacks_.clear();
  control_.clear();
  cells_.clear();
  results_.clear();
}

}  // namespace oxmlc::oxram
