// Backward-Euler transient analysis with adaptive stepping, source
// breakpoints, and event detection/callbacks.
//
// The step control is fixed (transient.cpp): the first step, and the first
// step after an event callback, is kDtInitial (0.1 ns); an accepted step grows
// the next by kDtGrowth (1.5x) up to dt_max; a failed Newton solve or an event
// overshoot quarters the step, never below kDtMin (10 fs); every solve uses
// the shunt kGmin (device.hpp).
//
// Events are the mechanism behind write termination in full-circuit mode: a
// monitor watches the comparator output voltage; when it crosses the logic
// threshold the callback commands the SL driver's StoppablePulse to ramp down
// — exactly the control-logic behaviour of paper §3.2 / Fig. 7b.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "numeric/newton.hpp"
#include "spice/mna.hpp"

namespace oxmlc::spice {

// Scalar observable on the solution, e.g. a node voltage or device current.
struct Probe {
  std::string name;
  std::function<double(double t, std::span<const double> x)> evaluate;
};

enum class EventDirection { kFalling, kRising, kAny };

struct TransientEvent {
  std::string name;
  // Monitored quantity g(t, x); the event fires on a zero/threshold crossing
  // of g in the configured direction.
  std::function<double(double t, std::span<const double> x)> value;
  double threshold = 0.0;
  EventDirection direction = EventDirection::kFalling;
  // Called once the crossing has been localized to within `resolution`. An
  // event fires at most once per run.
  std::function<void(double t, std::span<const double> x)> on_fire;
  double resolution = 1e-9;
};

struct TransientOptions {
  double t_stop = 1e-6;
  double dt_max = 1e-8;
  num::NewtonOptions newton;
  // Early-stop predicate, checked after each accepted step (events already
  // fired). Returning true ends the run with completed = true — used by
  // terminated writes whose tail carries no information once every cell has
  // been cut off.
  std::function<bool(double t)> stop_when;
};

struct FiredEvent {
  std::string name;
  double time = 0.0;
};

struct TransientResult {
  bool completed = false;        // reached t_stop (or stopped by request)
  std::vector<double> times;     // accepted step times (starts at 0)
  // probe_values[p][k] = probe p at times[k]
  std::vector<std::vector<double>> probe_values;
  std::vector<FiredEvent> fired_events;
  std::size_t steps_accepted = 0;
  std::size_t steps_rejected = 0;
  std::size_t newton_iterations = 0;

  // Returns the recorded series of the probe with the given name.
  const std::vector<double>& probe(const std::string& name,
                                   const std::vector<Probe>& probes) const;

  // Trapezoidal integral of probe series `values` against `times`.
  static double integrate(const std::vector<double>& times,
                          const std::vector<double>& values);
};

// Runs DC at t=0 (devices see their waveform value at time zero), initializes
// device history, then time-steps to options.t_stop. Probes are sampled at
// every accepted step. Throws ConvergenceError if the DC point or a transient
// step cannot be solved even at kDtMin.
TransientResult run_transient(MnaSystem& system, const TransientOptions& options,
                              const std::vector<Probe>& probes = {},
                              std::vector<TransientEvent> events = {});

}  // namespace oxmlc::spice
