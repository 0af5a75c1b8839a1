#include "oxram/drift.hpp"

#include <algorithm>
#include <cmath>

namespace oxmlc::oxram {
namespace {

constexpr double kBoltzmannEv = 8.617333262e-5;  // eV/K

}  // namespace

double drift_phi(double t, double tau, double nu) {
  if (t <= 0.0) {
    return 0.0;
  }
  return 1.0 - std::pow(1.0 + t / tau, -nu);
}

double drift_acceleration(const DriftParams& p) {
  return std::exp(p.ea_retention / kBoltzmannEv *
                  (1.0 / p.t_reference - 1.0 / p.t_operating));
}

double drifted_gap(const DriftParams& p, double g_anchor, double g_min,
                   double relax_amp, double drift_amp, double t) {
  if (!p.enabled || t <= 0.0) {
    return g_anchor;
  }
  const double depth = std::max(g_anchor - g_min, 0.0);
  const double loss = relax_amp * drift_phi(t, p.tau_fast, p.nu_fast) +
                      drift_amp * drift_phi(t * drift_acceleration(p), p.tau_slow, p.nu_slow);
  return g_anchor - depth * std::min(loss, 1.0);
}

double sample_relaxation_amplitude(const DriftParams& p, Rng& rng) {
  if (!p.enabled) {
    return 0.0;
  }
  return p.relax_fraction * rng.lognormal(0.0, p.sigma_relax);
}

double sample_drift_amplitude(const DriftParams& p, Rng& rng) {
  if (!p.enabled) {
    return 0.0;
  }
  return p.drift_fraction * rng.lognormal(0.0, p.sigma_drift_rel);
}

}  // namespace oxmlc::oxram
