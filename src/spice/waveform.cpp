#include "spice/waveform.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace oxmlc::spice {

PulseWaveform::PulseWaveform(const PulseSpec& spec) : spec_(spec) {
  OXMLC_CHECK(spec.rise > 0.0 && spec.fall > 0.0, "pulse rise/fall must be positive");
  OXMLC_CHECK(spec.width >= 0.0, "pulse width must be non-negative");
}

double PulseWaveform::value(double t) const {
  const auto& s = spec_;
  if (t < s.delay) return s.v1;
  double local = t - s.delay;
  if (s.period > 0.0) local = std::fmod(local, s.period);
  if (local < s.rise) return s.v1 + (s.v2 - s.v1) * local / s.rise;
  local -= s.rise;
  if (local < s.width) return s.v2;
  local -= s.width;
  if (local < s.fall) return s.v2 + (s.v1 - s.v2) * local / s.fall;
  return s.v1;
}

std::vector<double> PulseWaveform::breakpoints(double horizon) const {
  const auto& s = spec_;
  std::vector<double> bps;
  const double cycle = s.rise + s.width + s.fall;
  double base = s.delay;
  for (int rep = 0; rep < 10000; ++rep) {
    for (double offset : {0.0, s.rise, s.rise + s.width, cycle}) {
      const double t = base + offset;
      if (t > 0.0 && t <= horizon) bps.push_back(t);
    }
    if (s.period <= 0.0 || base + s.period > horizon) break;
    base += s.period;
  }
  std::sort(bps.begin(), bps.end());
  return bps;
}

PwlWaveform::PwlWaveform(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  OXMLC_CHECK(!points_.empty(), "PWL waveform needs at least one point");
  OXMLC_CHECK(std::is_sorted(points_.begin(), points_.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; }),
              "PWL points must be sorted by time");
}

double PwlWaveform::value(double t) const {
  if (t <= points_.front().first) return points_.front().second;
  if (t >= points_.back().first) return points_.back().second;
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), t,
      [](const auto& p, double time) { return p.first < time; });
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  const double w = (t - lo.first) / (hi.first - lo.first);
  return lo.second + w * (hi.second - lo.second);
}

std::vector<double> PwlWaveform::breakpoints(double horizon) const {
  std::vector<double> bps;
  for (const auto& [t, v] : points_) {
    (void)v;
    if (t > 0.0 && t <= horizon) bps.push_back(t);
  }
  return bps;
}

SinWaveform::SinWaveform(double offset, double amplitude, double frequency, double delay)
    : offset_(offset), amplitude_(amplitude), frequency_(frequency), delay_(delay) {
  OXMLC_CHECK(frequency > 0.0, "SIN waveform frequency must be positive");
}

double SinWaveform::value(double t) const {
  if (t < delay_) return offset_;
  const double x = t - delay_;
  return offset_ + amplitude_ * std::sin(2.0 * phys::kPi * frequency_ * x);
}

StoppablePulse::StoppablePulse(const PulseSpec& spec) : spec_(spec) {
  OXMLC_CHECK(spec.rise > 0.0 && spec.fall > 0.0, "pulse rise/fall must be positive");
}

double StoppablePulse::value(double t) const {
  const PulseWaveform natural(spec_);
  if (stop_time_ < 0.0 || t <= stop_time_) return natural.value(t);
  // Commanded ramp-down from the value held at the stop instant.
  const double into_fall = t - stop_time_;
  if (into_fall >= spec_.fall) return spec_.v1;
  return value_at_stop_ + (spec_.v1 - value_at_stop_) * into_fall / spec_.fall;
}

std::vector<double> StoppablePulse::breakpoints(double horizon) const {
  auto bps = PulseWaveform(spec_).breakpoints(horizon);
  if (stop_time_ >= 0.0) {
    if (stop_time_ <= horizon) bps.push_back(stop_time_);
    if (stop_time_ + spec_.fall <= horizon) bps.push_back(stop_time_ + spec_.fall);
    std::sort(bps.begin(), bps.end());
  }
  return bps;
}

void StoppablePulse::stop(double t) {
  if (stop_time_ >= 0.0) return;
  value_at_stop_ = PulseWaveform(spec_).value(t);
  stop_time_ = t;
}

void StoppablePulse::reset_command() {
  stop_time_ = -1.0;
  value_at_stop_ = 0.0;
}

}  // namespace oxmlc::spice
