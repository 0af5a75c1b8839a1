// Time-domain stimulus waveforms for independent sources, mirroring the SPICE
// DC / PULSE / PWL / SIN source specifications.
//
// `StoppablePulse` is the oxmlc-specific addition: the RESET write-termination
// control logic "triggers a stop pulse to the SL driver" (paper §3.2), which we
// model as a pulse source whose falling edge can be commanded at runtime by a
// transient event callback.
#pragma once

#include <memory>
#include <vector>

namespace oxmlc::spice {

// Value as a function of time. Implementations must be deterministic and
// side-effect free except for the explicit command API on StoppablePulse.
class Waveform {
 public:
  virtual ~Waveform() = default;
  virtual double value(double t) const = 0;

  // Latest time < horizon at which the waveform has a corner/breakpoint, used
  // by the transient engine to land steps exactly on edges. Returns a sorted
  // list of breakpoints within [0, horizon].
  virtual std::vector<double> breakpoints(double horizon) const {
    (void)horizon;
    return {};
  }
};

class DcWaveform final : public Waveform {
 public:
  explicit DcWaveform(double value) : value_(value) {}
  double value(double) const override { return value_; }

 private:
  double value_;
};

// SPICE PULSE(v1 v2 td tr tf pw per). A period of 0 means single-shot.
struct PulseSpec {
  double v1 = 0.0;      // initial value
  double v2 = 0.0;      // pulsed value
  double delay = 0.0;   // td
  double rise = 1e-9;   // tr
  double fall = 1e-9;   // tf
  double width = 1e-6;  // pw
  double period = 0.0;  // per (0 = non-repeating)
};

class PulseWaveform final : public Waveform {
 public:
  explicit PulseWaveform(const PulseSpec& spec);
  double value(double t) const override;
  std::vector<double> breakpoints(double horizon) const override;

  const PulseSpec& spec() const { return spec_; }

 private:
  PulseSpec spec_;
};

// Piecewise-linear waveform from sorted (time, value) points; clamps at ends.
class PwlWaveform final : public Waveform {
 public:
  explicit PwlWaveform(std::vector<std::pair<double, double>> points);
  double value(double t) const override;
  std::vector<double> breakpoints(double horizon) const override;

 private:
  std::vector<std::pair<double, double>> points_;
};

// SPICE SIN(vo va freq td), undamped.
class SinWaveform final : public Waveform {
 public:
  SinWaveform(double offset, double amplitude, double frequency, double delay = 0.0);
  double value(double t) const override;

 private:
  double offset_, amplitude_, frequency_, delay_;
};

// A pulse whose falling edge is commanded at runtime: after `stop(t_stop)` is
// called the output ramps from its current value to `v1` over `fall` seconds.
// Without a stop command it behaves exactly like the underlying pulse (the
// "standard RST pulse" of Fig. 10); with one it is the terminated pulse.
class StoppablePulse final : public Waveform {
 public:
  explicit StoppablePulse(const PulseSpec& spec);

  double value(double t) const override;
  std::vector<double> breakpoints(double horizon) const override;

  // Commands the falling edge at time t (idempotent; only the first wins).
  void stop(double t);
  bool stopped() const { return stop_time_ >= 0.0; }
  double stop_time() const { return stop_time_; }

  // Clears the stop command (for reusing one circuit across trials).
  void reset_command();

 private:
  PulseSpec spec_;
  double stop_time_ = -1.0;
  double value_at_stop_ = 0.0;
};

}  // namespace oxmlc::spice
