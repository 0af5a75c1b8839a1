// Stateless evaluation of the OxRAM compact model: conduction, switching
// rates, and helpers to convert between gap and resistance. The MNA device
// (oxram/device.hpp) and the fast cell path (oxram/fast_cell.hpp) both call
// into these functions so the two simulation levels share one physics.
#pragma once

#include "oxram/params.hpp"

namespace oxmlc::oxram {

// Cell current at voltage v (TE-BE) and gap g. Odd in v.
double cell_current(const OxramParams& p, double v, double g);

// dI/dV at constant gap (always positive).
double cell_conductance(const OxramParams& p, double v, double g);

// Local temperature including Joule heating at operating point (v, i).
double local_temperature(const OxramParams& p, double v, double i);

// Gap velocity dg/dt at (v, g). `virgin` engages the forming barrier;
// `rate_factor` is the per-operation C2C multiplier.
double gap_rate(const OxramParams& p, double v, double g, bool virgin,
                double rate_factor = 1.0);

// Integrates the gap ODE over `dt` holding v constant, with internal
// sub-stepping so each sub-step moves the gap by at most ~0.05 * g0. Returns
// the new gap (clamped to [g_min or 0, g_max / g_virgin]).
double advance_gap(const OxramParams& p, double v, double g, bool virgin, double dt,
                   double rate_factor = 1.0);

// Small-signal resistance V/I at the given read voltage.
double resistance_at(const OxramParams& p, double v_read, double g);

// Inverse of resistance_at in g (bisection; resistance is monotone in g).
// Throws InvalidArgumentError when the target is outside the representable
// range at this read voltage.
double gap_for_resistance(const OxramParams& p, double v_read, double r_target);

// Solves I(v, g) = i_target for v >= 0 (bisection on the monotone I-V).
double voltage_for_current(const OxramParams& p, double i_target, double g,
                           double v_max = 5.0);

// Suggested max transient step so the gap moves <= `max_fraction` * g0.
double recommended_dt(const OxramParams& p, double v, double g, bool virgin,
                      double rate_factor, double max_fraction = 0.1);

// The bound-awareness half of recommended_dt for callers that already hold
// the gap rate at (v, g) — the SIMD batch engine evaluates rates four lanes
// at a time and finishes the per-lane policy through this split.
double recommended_dt_given_rate(const OxramParams& p, double g, bool virgin,
                                 double rate, double max_fraction);

}  // namespace oxmlc::oxram
