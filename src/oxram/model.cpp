#include "oxram/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/units.hpp"

namespace oxmlc::oxram {
namespace {

// sinh with overflow clamp (|x| ~ 700 overflows double; circuits never reach
// a meaningful |V/v0| > 60).
double safe_sinh(double x) { return std::sinh(std::clamp(x, -60.0, 60.0)); }
double safe_cosh(double x) { return std::cosh(std::clamp(x, -60.0, 60.0)); }

double kT_ev(double temperature) {
  return phys::kBoltzmann * temperature / phys::kElementaryCharge;
}

}  // namespace

OxramParams sample_device(const OxramParams& nominal, const OxramVariability& variability,
                          Rng& rng) {
  OxramParams p = nominal;
  if (!variability.enabled) return p;
  // alpha and Lx are *switching* parameters in the Bocquet model the paper
  // varies (+/-5 %): they set how fast the gap moves under a given bias, not
  // the conduction law. Thickness enters through the internal field V/Lx, so
  // it scales the barrier-lowering efficiency xi. Conduction-law parameters
  // stay nominal — which is precisely why the current-terminated RESET is
  // "agnostic about resistance distribution" (paper §4.4.2): the feedback
  // pins the final current, and a uniform I(V) law maps it to a tight R.
  p.alpha =
      rng.truncated_normal(nominal.alpha, kSigmaAlphaRel * nominal.alpha, 0.05, 0.95);
  p.lx = rng.truncated_normal(nominal.lx, kSigmaLxRel * nominal.lx, 0.5 * nominal.lx,
                              1.5 * nominal.lx);
  p.xi = nominal.xi * (OxramParams::kNominalLx / p.lx);
  return p;
}

double sample_cycle_rate_factor(const OxramVariability& variability, Rng& rng) {
  if (!variability.enabled) return 1.0;
  return rng.lognormal(0.0, kSigmaRateC2c);
}

double cell_current(const OxramParams& p, double v, double g) {
  return p.i0 * std::exp(-g / p.g0) * safe_sinh(v / p.v0) + v / p.r_leak;
}

double cell_conductance(const OxramParams& p, double v, double g) {
  return p.i0 * std::exp(-g / p.g0) * safe_cosh(v / p.v0) / p.v0 + 1.0 / p.r_leak;
}

double local_temperature(const OxramParams& p, double v, double i) {
  const double rise = std::min(p.r_th * std::fabs(v * i), p.t_max_rise);
  return p.t_ambient + rise;
}

double gap_rate(const OxramParams& p, double v, double g, bool virgin, double rate_factor) {
  const double i = cell_current(p, v, g);
  const double kt = kT_ev(local_temperature(p, v, i));

  // Oxidation: filament dissolves, gap grows. Activated by negative cell
  // voltage (RESET polarity); the driving force is the field across the gap,
  // so the process self-limits as the gap deepens (negative feedback).
  const double field = std::min(2.0, std::sqrt(p.g_ref / std::max(g, 0.25 * p.g_ref)));
  const double v_reset = std::max(0.0, -v);  // only the RESET polarity drives oxidation
  const double ox_exponent =
      std::min(0.0, -(p.ea_ox - p.alpha * p.xi * v_reset * field) / kt);
  const double ox = p.k0 * (1.0 - g / p.g_max) * std::exp(ox_exponent);

  // Reduction: vacancies are generated at the filament tip and drift, gap
  // shrinks. Activated by positive voltage (SET polarity) with the full cell
  // voltage as driving force; a virgin device carries the forming barrier.
  const double ea_red = p.ea_red + (virgin ? p.dea_form : 0.0);
  const double v_set = std::max(0.0, v);
  const double red_exponent =
      std::min(0.0, -(ea_red - (1.0 - p.alpha) * p.xi * v_set) / kt);
  const double red = p.k0 * (g / p.g_max) * std::exp(red_exponent);

  return rate_factor * (ox - red);
}

double advance_gap(const OxramParams& p, double v, double g, bool virgin, double dt,
                   double rate_factor) {
  const double g_upper = virgin ? std::max(p.g_virgin, p.g_max) : p.g_max;
  const double g_lower = p.g_min;
  double remaining = dt;
  double gap = g;
  // Adaptive sub-stepping: bound the per-substep gap motion so the exponential
  // current/rate coupling stays resolved even when the caller's dt is coarse.
  for (int guard = 0; guard < 100000 && remaining > 0.0; ++guard) {
    const double rate = gap_rate(p, v, gap, virgin, rate_factor);
    if (rate == 0.0) break;
    const double max_move = 0.05 * p.g0;
    double h = std::min(remaining, max_move / std::fabs(rate));
    // Midpoint (RK2) step.
    const double g_half = std::clamp(gap + 0.5 * h * rate, g_lower, g_upper);
    const double rate_half = gap_rate(p, v, g_half, virgin, rate_factor);
    gap += h * rate_half;
    gap = std::clamp(gap, g_lower, g_upper);
    remaining -= h;
    if (gap <= g_lower && rate_half < 0.0) break;
    if (gap >= g_upper && rate_half > 0.0) break;
  }
  return gap;
}

double resistance_at(const OxramParams& p, double v_read, double g) {
  OXMLC_CHECK(v_read != 0.0, "resistance_at: read voltage must be nonzero");
  return v_read / cell_current(p, v_read, g);
}

double gap_for_resistance(const OxramParams& p, double v_read, double r_target) {
  const double r_lo = resistance_at(p, v_read, 0.0);
  const double r_hi = resistance_at(p, v_read, p.g_max);
  OXMLC_CHECK(r_target >= r_lo && r_target <= r_hi,
              "gap_for_resistance: target outside representable range");
  double lo = 0.0, hi = p.g_max;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (resistance_at(p, v_read, mid) < r_target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double voltage_for_current(const OxramParams& p, double i_target, double g, double v_max) {
  OXMLC_CHECK(i_target > 0.0, "voltage_for_current: target must be positive");
  OXMLC_CHECK(cell_current(p, v_max, g) >= i_target,
              "voltage_for_current: target unreachable below v_max");
  // Analytic seed from the dominant (tunneling) term, then safeguarded Newton
  // on the monotone I(V); the leak correction is tiny, so 2-3 iterations
  // reach machine-level accuracy.
  const double i_tun = p.i0 * std::exp(-g / p.g0);
  double v = std::min(v_max, p.v0 * std::asinh(i_target / i_tun));
  double lo = 0.0, hi = v_max;
  for (int iter = 0; iter < 60; ++iter) {
    const double f = cell_current(p, v, g) - i_target;
    if (f > 0.0) {
      hi = std::min(hi, v);
    } else {
      lo = std::max(lo, v);
    }
    const double df = cell_conductance(p, v, g);
    double v_next = v - f / df;
    if (!(v_next > lo && v_next < hi)) v_next = 0.5 * (lo + hi);  // bisection fallback
    if (std::fabs(v_next - v) < 1e-12 * (1.0 + std::fabs(v))) return v_next;
    v = v_next;
  }
  return v;
}

double recommended_dt(const OxramParams& p, double v, double g, bool virgin,
                      double rate_factor, double max_fraction) {
  return recommended_dt_given_rate(p, g, virgin, gap_rate(p, v, g, virgin, rate_factor),
                                   max_fraction);
}

double recommended_dt_given_rate(const OxramParams& p, double g, bool virgin, double rate,
                                 double max_fraction) {
  if (rate == 0.0) return std::numeric_limits<double>::infinity();
  // A rate pushing into a bound the gap already sits on cannot move the
  // state: no step-size constraint (otherwise a fully-SET cell held at bias
  // would force femtosecond steps for the rest of the pulse).
  const double g_upper = virgin ? std::max(p.g_virgin, p.g_max) : p.g_max;
  const double eps = 1e-4 * p.g0;
  if ((g <= p.g_min + eps && rate < 0.0) || (g >= g_upper - eps && rate > 0.0)) {
    return std::numeric_limits<double>::infinity();
  }
  return max_fraction * p.g0 / std::fabs(rate);
}

}  // namespace oxmlc::oxram
