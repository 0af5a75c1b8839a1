// OxRAM cell as an MNA device for full-circuit (SPICE-level) simulation.
//
// The gap state is frozen during each Newton solve (the conduction law is
// stamped with its voltage linearization) and advanced after the step is
// accepted, integrating dg/dt with the converged cell voltage. The device
// caps the engine's step size so the gap never moves more than a fraction of
// g0 per step, which keeps this quasi-static splitting accurate; the fast
// path (fast_cell.hpp) and a dedicated integration test cross-check it. The
// device switches at the nominal rate; cycle-to-cycle rate variation belongs
// to the fast path (FastCell::set_rate_factor).
#pragma once

#include "oxram/model.hpp"
#include "spice/device.hpp"

namespace oxmlc::oxram {

class OxramDevice final : public spice::Device {
 public:
  // Terminals: top electrode (TE, bit-line side), bottom electrode (BE).
  // V = V(te) - V(be); V > 0 is the SET polarity.
  OxramDevice(std::string name, int te, int be, const OxramParams& params,
              double initial_gap, bool virgin = false);

  void stamp(const spice::StampContext& ctx, spice::Stamper& stamper) override;
  void commit_step(const spice::StampContext& ctx) override;
  double recommend_dt(const spice::StampContext& ctx) const override;

  // --- state access ---
  double gap() const { return gap_; }
  void set_gap(double gap) { gap_ = gap; }
  bool virgin() const { return virgin_; }
  void set_virgin(bool virgin) { virgin_ = virgin; }

  const OxramParams& params() const { return params_; }

  // Cell current at iterate x (TE -> BE).
  double current(std::span<const double> x) const;

  // Read-equivalent resistance of the present state at `v_read`.
  double resistance(double v_read) const {
    return resistance_at(params_, v_read, gap_);
  }

 private:
  double terminal_voltage(std::span<const double> x) const;

  OxramParams params_;
  double gap_;
  bool virgin_;
};

}  // namespace oxmlc::oxram
