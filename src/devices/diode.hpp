// Shockley diode with junction-voltage limiting for Newton robustness.
#pragma once

#include "spice/device.hpp"

namespace oxmlc::dev {

// The junction sits at phys::kRoomTemperature.
struct DiodeParams {
  double saturation_current = 1e-14;  // Is (A)
  double emission_coefficient = 1.0;  // n
};

class Diode final : public spice::Device {
 public:
  using Params = DiodeParams;

  Diode(std::string name, int anode, int cathode, const Params& params = Params{});

  void stamp(const spice::StampContext& ctx, spice::Stamper& stamper) override;

  // I(V) and dI/dV of the limited model (exposed for unit tests).
  void evaluate(double v, double& current, double& conductance) const;

 private:
  Params params_;
  double vt_;        // n * kT/q
  double v_crit_;    // above this the exponential is linearized
};

}  // namespace oxmlc::dev
