#include "devices/diode.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace oxmlc::dev {

Diode::Diode(std::string name, int anode, int cathode, const Params& params)
    : Device(std::move(name)), params_(params) {
  OXMLC_CHECK(params.saturation_current > 0.0, "diode " + name_ + ": Is must be positive");
  OXMLC_CHECK(params.emission_coefficient > 0.0, "diode " + name_ + ": n must be positive");
  nodes_ = {anode, cathode};
  vt_ = params_.emission_coefficient * phys::kBoltzmann * phys::kRoomTemperature /
        phys::kElementaryCharge;
  // Linearize the exponential beyond ~0.9 V-equivalent to avoid overflow; the
  // extension is C1-continuous so Newton sees a smooth model.
  v_crit_ = vt_ * std::log(1.0 / params_.saturation_current);
}

void Diode::evaluate(double v, double& current, double& conductance) const {
  if (v <= v_crit_) {
    const double e = std::exp(v / vt_);
    current = params_.saturation_current * (e - 1.0);
    conductance = params_.saturation_current * e / vt_;
  } else {
    // First-order continuation of the exponential above v_crit_.
    const double e = std::exp(v_crit_ / vt_);
    const double i_crit = params_.saturation_current * (e - 1.0);
    const double g_crit = params_.saturation_current * e / vt_;
    current = i_crit + g_crit * (v - v_crit_);
    conductance = g_crit;
  }
}

void Diode::stamp(const spice::StampContext& ctx, spice::Stamper& stamper) {
  const int a = nodes_[0], c = nodes_[1];
  const double vd = v(ctx, a) - v(ctx, c);
  double i = 0.0, g = 0.0;
  evaluate(vd, i, g);
  g += ctx.gmin;  // parallel gmin as in SPICE
  i += ctx.gmin * vd;

  stamper.residual(a, i);
  stamper.residual(c, -i);
  stamper.jacobian(a, a, g);
  stamper.jacobian(a, c, -g);
  stamper.jacobian(c, a, -g);
  stamper.jacobian(c, c, g);
}

}  // namespace oxmlc::dev
