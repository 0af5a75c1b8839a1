#include "oxram/drift.hpp"

#include <algorithm>
#include <cmath>

#include "oxram/model.hpp"

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

void DriftTrajectory::reanchor(const DriftParams& drift, double gap, double t, Rng& rng) {
  anchor = gap;
  t_anchor = t;
  offset = 0.0;
  relax_amp = sample_relaxation_amplitude(drift, rng);
  if (!programmed) {
    // First program event of this cell: its slow-drift activation (the
    // per-device D2D quantity) follows the first per-event amplitude.
    drift_amp = sample_drift_amplitude(drift, rng);
    programmed = true;
  }
}

double DriftTrajectory::gap_at(const DriftParams& drift, const OxramParams& params,
                               double t) const {
  const double g = drifted_gap(drift, anchor, params.g_min, relax_amp, drift_amp, t - t_anchor);
  return std::clamp(g + offset, params.g_min, params.g_max);
}

double disturbed_gap(const FastCell& cell, double gap, std::size_t reads,
                     const ReadDisturbModel& model) {
  if (!model.enabled || reads == 0) {
    return gap;
  }
  // At 0.3 V the bias-driven rate is many orders below the programming rate,
  // which is precisely why reads are cheap — but 1e6+ reads add up. The
  // compact model's accelerated barriers also produce a small V = 0 drift (a
  // time-scale artifact, see bench_ext_read_disturb/DESIGN.md) that is not
  // the read's fault, hence the bias-minus-rest difference.
  const StackOperatingPoint op = solve_stack(cell.params(), gap, cell.stack(), Polarity::kSet,
                                             kReadVoltage, kReadWlVoltage);
  const double stress = static_cast<double>(reads) * kSenseDuration;
  const double g_bias =
      advance_gap(cell.params(), op.v_cell, gap, cell.virgin(), stress, cell.rate_factor());
  const double g_rest =
      advance_gap(cell.params(), 0.0, gap, cell.virgin(), stress, cell.rate_factor());
  return std::clamp(gap + (g_bias - g_rest), cell.params().g_min, cell.params().g_max);
}

OxramParams worn_params(const OxramParams& fresh, const EnduranceModel& model,
                        std::uint64_t cycles) {
  if (static_cast<double>(cycles) <= model.onset_cycles) {
    return fresh;
  }
  const double decades = std::log10(static_cast<double>(cycles) / model.onset_cycles);
  const double loss = std::min(kMaxWindowLoss, model.loss_per_decade * decades);
  const double window = fresh.g_max - fresh.g_min;
  OxramParams worn = fresh;
  worn.g_min = fresh.g_min + 0.5 * loss * window;
  worn.g_max = fresh.g_max - 0.5 * loss * window;
  return worn;
}

}  // namespace oxmlc::oxram
