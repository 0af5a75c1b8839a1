// Independent and controlled sources.
#pragma once

#include <memory>

#include "spice/device.hpp"
#include "spice/waveform.hpp"

namespace oxmlc::dev {

using spice::Device;
using spice::StampContext;
using spice::Stamper;
using spice::Waveform;

// Independent voltage source V(n+, n-) = waveform(t). Adds one branch unknown
// (its current, flowing n+ -> n- through the source).
class VoltageSource final : public Device {
 public:
  VoltageSource(std::string name, int positive, int negative,
                std::shared_ptr<Waveform> waveform);
  // DC convenience.
  VoltageSource(std::string name, int positive, int negative, double dc_value);

  std::size_t branch_count() const override { return 1; }
  void stamp(const StampContext& ctx, Stamper& stamper) override;
  std::vector<double> breakpoints(double horizon) const override;
  std::vector<spice::StructuralEdge> dc_edges() const override;

  // Source current at iterate x (positive = out of the + terminal through the
  // external circuit).
  double current(std::span<const double> x) const;

  Waveform& waveform() { return *waveform_; }
  void set_waveform(std::shared_ptr<Waveform> waveform);
  // Unknown index of the source's branch current (-1 before finalize).
  int branch_index() const { return branches_.empty() ? -1 : branches_[0]; }

  // AC (small-signal) excitation, in phase; zero magnitude = quiet in .ac.
  void set_ac(double magnitude);
  void stamp_ac_source(std::span<std::complex<double>> rhs) const override;

 private:
  std::shared_ptr<Waveform> waveform_;
  std::complex<double> ac_{0.0, 0.0};
};

// Independent current source; current flows n+ -> n- through the source.
class CurrentSource final : public Device {
 public:
  CurrentSource(std::string name, int positive, int negative,
                std::shared_ptr<Waveform> waveform);
  CurrentSource(std::string name, int positive, int negative, double dc_value);

  void stamp(const StampContext& ctx, Stamper& stamper) override;
  std::vector<double> breakpoints(double horizon) const override;
  std::vector<spice::StructuralEdge> dc_edges() const override;

  Waveform& waveform() { return *waveform_; }
  void set_waveform(std::shared_ptr<Waveform> waveform);

  // AC (small-signal) excitation, in phase; zero magnitude = quiet in .ac.
  void set_ac(double magnitude);
  void stamp_ac_source(std::span<std::complex<double>> rhs) const override;

 private:
  std::shared_ptr<Waveform> waveform_;
  std::complex<double> ac_{0.0, 0.0};
};

// Voltage-controlled voltage source: V(out+, out-) = gain * V(c+, c-).
class Vcvs final : public Device {
 public:
  Vcvs(std::string name, int out_pos, int out_neg, int ctrl_pos, int ctrl_neg, double gain);

  std::size_t branch_count() const override { return 1; }
  void stamp(const StampContext& ctx, Stamper& stamper) override;
  std::vector<spice::StructuralEdge> dc_edges() const override;

 private:
  double gain_;
};

// Voltage-controlled current source: I(out+ -> out-) = gm * V(c+, c-).
class Vccs final : public Device {
 public:
  Vccs(std::string name, int out_pos, int out_neg, int ctrl_pos, int ctrl_neg,
       double transconductance);

  void stamp(const StampContext& ctx, Stamper& stamper) override;
  std::vector<spice::StructuralEdge> dc_edges() const override;

 private:
  double gm_;
};

// Current-controlled current source: I(out+ -> out-) = gain * I(sensor),
// where the sensing branch is an existing VoltageSource (SPICE F-element
// convention: the controlling current is the one flowing through a named
// V source from its + to its - terminal).
class Cccs final : public Device {
 public:
  Cccs(std::string name, int out_pos, int out_neg, const VoltageSource& sensor,
       double gain);

  void stamp(const StampContext& ctx, Stamper& stamper) override;
  std::vector<spice::StructuralEdge> dc_edges() const override;

 private:
  const VoltageSource& sensor_;
  double gain_;
};

// Current-controlled voltage source: V(out+, out-) = r * I(sensor)
// (SPICE H element).
class Ccvs final : public Device {
 public:
  Ccvs(std::string name, int out_pos, int out_neg, const VoltageSource& sensor,
       double transresistance);

  std::size_t branch_count() const override { return 1; }
  void stamp(const StampContext& ctx, Stamper& stamper) override;
  std::vector<spice::StructuralEdge> dc_edges() const override;

 private:
  const VoltageSource& sensor_;
  double r_;
};

// Voltage-controlled switch with smooth (tanh) resistance transition between
// r_off and r_on around the threshold. The smoothness keeps Newton happy and
// mimics the finite gain of a real pass-gate.
class VSwitch final : public Device {
 public:
  struct Params {
    double threshold = 0.5;       // control voltage at half transition
    double transition = 0.05;     // tanh width (V)
    double r_on = 1.0;
    double r_off = 1e9;
    bool active_low = false;      // true: conducts when control is LOW
  };

  VSwitch(std::string name, int a, int b, int ctrl_pos, int ctrl_neg, const Params& params);

  void stamp(const StampContext& ctx, Stamper& stamper) override;
  std::vector<spice::StructuralEdge> dc_edges() const override;

  // Conductance at a given control voltage (exposed for tests).
  double conductance(double v_ctrl) const;

 private:
  Params params_;
};

}  // namespace oxmlc::dev
