#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/registry.hpp"
#include "spice/dc.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace oxmlc::spice {
namespace {

// Step control, as transient.hpp describes it.
constexpr double kDtInitial = 1e-10;
constexpr double kDtMin = 1e-14;
constexpr double kDtGrowth = 1.5;

struct TransientMetrics {
  obs::Counter& runs = obs::registry().counter("transient.runs");
  obs::Counter& steps_accepted = obs::registry().counter("transient.steps.accepted");
  obs::Counter& steps_rejected = obs::registry().counter("transient.steps.rejected");
  obs::Counter& event_shrinks = obs::registry().counter("transient.event_step_shrinks");
  obs::Counter& events_fired = obs::registry().counter("transient.events_fired");
  obs::Counter& newton_iterations =
      obs::registry().counter("transient.newton_iterations");
  // Accepted step sizes on a log axis: dt spans 1e-14..1e-7 s, so log10(dt)
  // in [-14, -7) with half-decade bins; the snapshot's min/max recover the
  // extreme steps actually taken.
  obs::Histogram& log10_dt =
      obs::registry().histogram("transient.log10_dt", -14.0, -7.0, 14);
  obs::Timer& run_time = obs::registry().timer("transient.run_time");

  static TransientMetrics& get() {
    static TransientMetrics metrics;
    return metrics;
  }
};

// Collects and sorts all device breakpoints up to the stop time.
std::vector<double> collect_breakpoints(Circuit& circuit, double t_stop) {
  std::vector<double> bps;
  for (const auto& device : circuit.devices()) {
    const auto device_bps = device->breakpoints(t_stop);
    bps.insert(bps.end(), device_bps.begin(), device_bps.end());
  }
  std::sort(bps.begin(), bps.end());
  bps.erase(std::unique(bps.begin(), bps.end(),
                        [](double a, double b) { return std::fabs(a - b) < 1e-15; }),
            bps.end());
  return bps;
}

bool crossed(double before, double after, double threshold, EventDirection direction) {
  // A pre-step value sitting exactly on the threshold still arms the event
  // (it fires as soon as the signal moves off the threshold in the watched
  // direction), but a signal resting at the threshold across a step does not
  // re-fire — `after` must strictly leave the boundary in that case.
  const bool falling = (before > threshold && after <= threshold) ||
                       (before == threshold && after < threshold);
  const bool rising = (before < threshold && after >= threshold) ||
                      (before == threshold && after > threshold);
  switch (direction) {
    case EventDirection::kFalling: return falling;
    case EventDirection::kRising: return rising;
    case EventDirection::kAny: return falling || rising;
  }
  return false;
}

}  // namespace

const std::vector<double>& TransientResult::probe(const std::string& name,
                                                  const std::vector<Probe>& probes) const {
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (probes[i].name == name) return probe_values[i];
  }
  throw InvalidArgumentError("unknown probe: " + name);
}

double TransientResult::integrate(const std::vector<double>& times,
                                  const std::vector<double>& values) {
  OXMLC_CHECK(times.size() == values.size(), "integrate: series size mismatch");
  double sum = 0.0;
  for (std::size_t k = 1; k < times.size(); ++k) {
    sum += 0.5 * (values[k] + values[k - 1]) * (times[k] - times[k - 1]);
  }
  return sum;
}

TransientResult run_transient(MnaSystem& system, const TransientOptions& options,
                              const std::vector<Probe>& probes,
                              std::vector<TransientEvent> events) {
  OXMLC_CHECK(options.t_stop > 0.0, "transient: t_stop must be positive");

  Circuit& circuit = system.circuit();
  StampContext& ctx = system.context();
  const std::size_t n = system.dimension();

  TransientMetrics& metrics = TransientMetrics::get();
  metrics.runs.add();
  obs::ScopedTimer run_timer(metrics.run_time);

  TransientResult result;
  result.probe_values.resize(probes.size());

  // --- DC operating point at t = 0 ---
  DcOptions dc_options;
  dc_options.newton = options.newton;
  DcResult dc = solve_dc(system, dc_options);
  if (!dc.converged) {
    throw ConvergenceError("transient: DC operating point did not converge");
  }
  result.newton_iterations += dc.newton_iterations;
  metrics.newton_iterations.add(dc.newton_iterations);

  std::vector<double> x = dc.solution;

  ctx.mode = AnalysisMode::kTransient;
  ctx.gmin = kGmin;
  ctx.source_scale = 1.0;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  ctx.x = x;
  for (auto& device : circuit.devices()) device->init_state(ctx);

  auto record = [&](double t, std::span<const double> solution) {
    result.times.push_back(t);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      result.probe_values[p].push_back(probes[p].evaluate(t, solution));
    }
  };
  record(0.0, x);

  // Event levels at t = 0.
  std::vector<double> event_value(events.size(), 0.0);
  std::vector<bool> event_done(events.size(), false);
  for (std::size_t e = 0; e < events.size(); ++e) {
    event_value[e] = events[e].value(0.0, x);
  }

  std::vector<double> breakpoints = collect_breakpoints(circuit, options.t_stop);
  std::size_t next_bp = 0;

  double t = 0.0;
  double dt = kDtInitial;
  std::vector<double> x_trial(n, 0.0);

  while (t < options.t_stop - 1e-18) {
    // Clamp the step to the next breakpoint and the stop time.
    while (next_bp < breakpoints.size() && breakpoints[next_bp] <= t + 1e-15) ++next_bp;
    double dt_step = std::min(dt, options.t_stop - t);
    if (next_bp < breakpoints.size() && t + dt_step > breakpoints[next_bp]) {
      // Snap to the breakpoint — unless the gap is below kDtMin, which would
      // drive Newton with a degenerate step. Such a breakpoint is merged into
      // the following step: take (at most) a kDtMin step past it and let the
      // skip loop above consume it on the next iteration.
      const double gap = breakpoints[next_bp] - t;
      dt_step = gap >= kDtMin ? gap : std::min(kDtMin, dt_step);
    }
    // Device-recommended ceiling (OxRAM state-rate limiting).
    {
      ctx.time = t;
      ctx.dt = dt_step;
      ctx.x = x;
      double rec = std::numeric_limits<double>::infinity();
      for (const auto& device : circuit.devices()) {
        rec = std::min(rec, device->recommend_dt(ctx));
      }
      if (rec < dt_step) dt_step = std::max(rec, kDtMin);
    }

    // --- attempt the step ---
    bool accepted = false;
    while (!accepted) {
      ctx.time = t + dt_step;
      ctx.dt = dt_step;
      x_trial = x;  // seed with previous solution
      num::NewtonResult newton;
      try {
        newton = num::solve_newton(system, x_trial, options.newton, system.workspace());
      } catch (const num::SingularMatrixError& error) {
        system.rethrow_singular(error, "transient t=" + std::to_string(ctx.time));
      }
      result.newton_iterations += newton.iterations;
      metrics.newton_iterations.add(newton.iterations);

      if (!newton.converged) {
        ++result.steps_rejected;
        metrics.steps_rejected.add();
        if (dt_step <= kDtMin * 1.0001) {
          throw ConvergenceError("transient: step failed at t=" + std::to_string(t) +
                                 " at the minimum step");
        }
        dt_step = std::max(kDtMin, dt_step * 0.25);
        dt = dt_step;
        continue;
      }

      // --- event localization: shrink the step until each crossing is within
      // its resolution, then accept and fire. ---
      bool needs_smaller_step = false;
      for (std::size_t e = 0; e < events.size(); ++e) {
        if (event_done[e]) continue;
        const double after = events[e].value(ctx.time, x_trial);
        if (crossed(event_value[e], after, events[e].threshold, events[e].direction) &&
            dt_step > events[e].resolution && dt_step > kDtMin * 2.0) {
          needs_smaller_step = true;
          break;
        }
      }
      if (needs_smaller_step) {
        metrics.event_shrinks.add();
        dt_step = std::max({kDtMin, dt_step * 0.25});
        continue;
      }
      accepted = true;
    }

    // --- commit ---
    t += dt_step;
    ctx.time = t;
    ctx.dt = dt_step;
    x = x_trial;
    ctx.x = x;
    for (auto& device : circuit.devices()) device->commit_step(ctx);
    ++result.steps_accepted;
    metrics.steps_accepted.add();
    metrics.log10_dt.observe(std::log10(dt_step));
    record(t, x);

    // --- fire events whose crossing landed inside this accepted step ---
    bool waveforms_changed = false;
    for (std::size_t e = 0; e < events.size(); ++e) {
      if (event_done[e]) continue;
      const double after = events[e].value(t, x);
      if (crossed(event_value[e], after, events[e].threshold, events[e].direction)) {
        result.fired_events.push_back({events[e].name, t});
        metrics.events_fired.add();
        if (events[e].on_fire) {
          events[e].on_fire(t, x);
          waveforms_changed = true;
        }
        event_done[e] = true;
      }
      event_value[e] = after;
    }
    if (waveforms_changed) {
      // Callbacks typically command StoppablePulse edges: refresh breakpoints.
      breakpoints = collect_breakpoints(circuit, options.t_stop);
      next_bp = static_cast<std::size_t>(
          std::lower_bound(breakpoints.begin(), breakpoints.end(), t + 1e-15) -
          breakpoints.begin());
      dt = kDtInitial;  // resolve the commanded edge accurately
    }

    if (options.stop_when && options.stop_when(t)) break;

    // Grow the step after success.
    dt = std::min(options.dt_max, std::max(dt, dt_step) * kDtGrowth);
  }

  result.completed = true;
  return result;
}

}  // namespace oxmlc::spice
