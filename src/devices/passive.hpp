// Linear passive devices: resistor, capacitor, inductor.
#pragma once

#include "spice/device.hpp"

namespace oxmlc::dev {

using spice::Device;
using spice::StampContext;
using spice::Stamper;

class Resistor final : public Device {
 public:
  Resistor(std::string name, int a, int b, double resistance);

  void stamp(const StampContext& ctx, Stamper& stamper) override;
  void self_check(std::vector<spice::analyze::Diagnostic>& out) const override;

  // Current flowing a -> b at iterate x.
  double current(std::span<const double> x) const;

  double resistance() const { return resistance_; }
  void set_resistance(double r);

 private:
  double resistance_;
};

// Capacitor with a Backward-Euler companion model. Open in DC.
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, int a, int b, double capacitance);

  void stamp(const StampContext& ctx, Stamper& stamper) override;
  void init_state(const StampContext& ctx) override;
  void commit_step(const StampContext& ctx) override;
  void stamp_reactive(num::TripletMatrix& b) const override;
  std::vector<spice::StructuralEdge> dc_edges() const override;
  void self_check(std::vector<spice::analyze::Diagnostic>& out) const override;

 private:
  double capacitance_;
  double v_prev_ = 0.0;
};

// Inductor: short in DC, Backward-Euler companion in transient; adds one
// branch-current unknown.
class Inductor final : public Device {
 public:
  Inductor(std::string name, int a, int b, double inductance);

  std::size_t branch_count() const override { return 1; }
  void stamp(const StampContext& ctx, Stamper& stamper) override;
  void init_state(const StampContext& ctx) override;
  void commit_step(const StampContext& ctx) override;
  void stamp_reactive(num::TripletMatrix& b) const override;
  std::vector<spice::StructuralEdge> dc_edges() const override;
  void self_check(std::vector<spice::analyze::Diagnostic>& out) const override;

 private:
  double inductance_;
  double i_prev_ = 0.0;
};

}  // namespace oxmlc::dev
