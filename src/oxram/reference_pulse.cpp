#include "oxram/reference_pulse.hpp"

#include <algorithm>
#include <optional>

#include "spice/waveform.hpp"

namespace oxmlc::oxram {
namespace {

OperationResult step_pulse(FastCell& cell, const PulseShape& pulse, Polarity polarity,
                           double v_wl, bool through_mirror, std::optional<double> iref,
                           double dt_max, std::vector<TrajectoryPoint>* trajectory) {
  const OxramParams& params = cell.params();
  const double rate_factor = cell.rate_factor();
  double gap = cell.gap();
  bool virgin = cell.virgin();

  OperationResult result;
  result.final_gap = gap;

  spice::PulseSpec spec;
  spec.v1 = 0.0;
  spec.v2 = pulse.amplitude;
  spec.delay = 0.0;
  spec.rise = pulse.rise;
  spec.fall = pulse.fall;
  spec.width = pulse.width;
  const spice::PulseWaveform natural(spec);
  const double natural_end = pulse.rise + pulse.width + pulse.fall;

  StackConfig stack = cell.stack();
  stack.bl_through_mirror = through_mirror;

  // Once termination is commanded the drive ramps down from its value at the
  // command instant.
  double ramp_start = -1.0;
  double ramp_from = 0.0;
  auto drive_value = [&](double t) {
    if (ramp_start < 0.0 || t <= ramp_start) return natural.value(t);
    const double into = t - ramp_start;
    if (into >= pulse.fall) return 0.0;
    return ramp_from * (1.0 - into / pulse.fall);
  };

  double t = 0.0;
  double t_end = natural_end;
  double prev_i = 0.0, prev_p_src = 0.0, prev_p_cell = 0.0, prev_t = 0.0;
  bool first_sample = true;

  const double sign = polarity == Polarity::kReset ? -1.0 : 1.0;

  while (t < t_end - 1e-15) {
    const double v_d = drive_value(t);
    const StackOperatingPoint sp = solve_stack(params, gap, stack, polarity, v_d, v_wl);
    const double v_cell_signed = sign * sp.v_cell;

    if (trajectory != nullptr) {
      trajectory->push_back({t, sp.current, v_cell_signed, gap});
    }

    // Trapezoidal energy accumulation.
    if (!first_sample) {
      const double dt_seg = t - prev_t;
      result.energy_source += 0.5 * (prev_p_src + v_d * sp.current) * dt_seg;
      result.energy_cell += 0.5 * (prev_p_cell + sp.v_cell * sp.current) * dt_seg;
    }
    prev_p_src = v_d * sp.current;
    prev_p_cell = sp.v_cell * sp.current;

    // Termination detection (plateau only, falling crossing or already-below).
    if (iref && !result.terminated && t >= pulse.rise && ramp_start < 0.0) {
      if (sp.current <= *iref) {
        // Linear interpolation to the crossing inside the last step.
        double t_cross = t;
        if (!first_sample && prev_i > *iref) {
          t_cross = prev_t + (t - prev_t) * (prev_i - *iref) / (prev_i - sp.current);
        }
        result.terminated = true;
        result.t_terminate = t_cross;
        ramp_start = t_cross + kTerminationDelay;
        ramp_from = drive_value(ramp_start);
        t_end = std::min(t_end, ramp_start + pulse.fall);
      }
    }
    prev_i = sp.current;
    prev_t = t;
    first_sample = false;

    // --- choose the next step ---
    // Near the termination crossing the step is refined so the gap moves only
    // a sliver of g0 per step: the decision current maps exponentially to R,
    // so crossing-localization error converts 1:1 into programmed-R error.
    double gap_fraction = 0.1;
    double dt_cap = dt_max;
    if (iref && !result.terminated && sp.current > 0.0 && sp.current < 2.0 * *iref) {
      gap_fraction = 0.004;
      dt_cap = std::min(dt_cap, 5e-9);
    }
    double dt = std::min(dt_cap, recommended_dt(params, v_cell_signed, gap, virgin,
                                                rate_factor, gap_fraction));
    // Land on waveform corners so the plateau entry/exit are resolved.
    for (double corner : {pulse.rise, pulse.rise + pulse.width, ramp_start,
                          ramp_start >= 0.0 ? ramp_start + pulse.fall : -1.0, t_end}) {
      if (corner > t + 1e-15 && corner < t + dt) dt = corner - t;
    }
    dt = std::max(dt, 1e-13);

    gap = advance_gap(params, v_cell_signed, gap, virgin, dt, rate_factor);
    if (virgin && gap < params.g_max * 0.98) virgin = false;
    t += dt;
  }

  result.t_end = t_end;
  if (!result.terminated) result.t_terminate = natural_end;
  result.final_gap = gap;
  cell.set_gap(gap);
  cell.set_virgin(virgin);
  return result;
}

}  // namespace

OperationResult reference_pulse(FastCell& cell, const ResetOperation& op,
                                std::vector<TrajectoryPoint>* trajectory) {
  return step_pulse(cell, op.pulse, Polarity::kReset, op.v_wl,
                    /*through_mirror=*/op.iref.has_value(), op.iref, op.dt_max,
                    trajectory);
}

OperationResult reference_pulse(FastCell& cell, const SetOperation& op,
                                std::vector<TrajectoryPoint>* trajectory) {
  return step_pulse(cell, op.pulse, Polarity::kSet, op.v_wl, /*through_mirror=*/false,
                    std::nullopt, op.dt_max, trajectory);
}

}  // namespace oxmlc::oxram
