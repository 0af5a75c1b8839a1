#include "devices/sources.hpp"

#include <cmath>

#include "spice/analyze/diagnostic.hpp"
#include "util/error.hpp"

namespace oxmlc::dev {

// --- static-analysis structure descriptions -------------------------------
// Output pairs carry the electrical role of the device; control pairs are
// infinite-impedance observers and contribute no DC edge.

std::vector<spice::StructuralEdge> VoltageSource::dc_edges() const {
  return {{nodes_[0], nodes_[1], spice::EdgeKind::kVoltageSource}};
}

std::vector<spice::StructuralEdge> CurrentSource::dc_edges() const {
  return {{nodes_[0], nodes_[1], spice::EdgeKind::kCurrentSource}};
}

std::vector<spice::StructuralEdge> Vcvs::dc_edges() const {
  return {{nodes_[0], nodes_[1], spice::EdgeKind::kVoltageSource}};
}

std::vector<spice::StructuralEdge> Vccs::dc_edges() const {
  return {{nodes_[0], nodes_[1], spice::EdgeKind::kCurrentSource}};
}

std::vector<spice::StructuralEdge> Cccs::dc_edges() const {
  return {{nodes_[0], nodes_[1], spice::EdgeKind::kCurrentSource}};
}

std::vector<spice::StructuralEdge> Ccvs::dc_edges() const {
  return {{nodes_[0], nodes_[1], spice::EdgeKind::kVoltageSource}};
}

std::vector<spice::StructuralEdge> VSwitch::dc_edges() const {
  // The a-b pair conducts (r_on..r_off); the control pair only observes.
  return {{nodes_[0], nodes_[1], spice::EdgeKind::kConductance}};
}

VoltageSource::VoltageSource(std::string name, int positive, int negative,
                             std::shared_ptr<Waveform> waveform)
    : Device(std::move(name)), waveform_(std::move(waveform)) {
  OXMLC_CHECK(waveform_ != nullptr, "voltage source " + name_ + ": null waveform");
  nodes_ = {positive, negative};
}

VoltageSource::VoltageSource(std::string name, int positive, int negative, double dc_value)
    : VoltageSource(std::move(name), positive, negative,
                    std::make_shared<spice::DcWaveform>(dc_value)) {}

void VoltageSource::stamp(const StampContext& ctx, Stamper& stamper) {
  const int p = nodes_[0], m = nodes_[1], br = branches_[0];
  const double i_br = ctx.x[static_cast<std::size_t>(br)];
  stamper.residual(p, i_br);
  stamper.residual(m, -i_br);
  stamper.jacobian(p, br, 1.0);
  stamper.jacobian(m, br, -1.0);

  const double target = waveform_->value(ctx.time) * ctx.source_scale;
  stamper.residual(br, v(ctx, p) - v(ctx, m) - target);
  stamper.jacobian(br, p, 1.0);
  stamper.jacobian(br, m, -1.0);
}

std::vector<double> VoltageSource::breakpoints(double horizon) const {
  return waveform_->breakpoints(horizon);
}

double VoltageSource::current(std::span<const double> x) const {
  return x[static_cast<std::size_t>(branches_[0])];
}

void VoltageSource::set_waveform(std::shared_ptr<Waveform> waveform) {
  OXMLC_CHECK(waveform != nullptr, "voltage source " + name_ + ": null waveform");
  waveform_ = std::move(waveform);
}

void VoltageSource::set_ac(double magnitude) { ac_ = {magnitude, 0.0}; }

void VoltageSource::stamp_ac_source(std::span<std::complex<double>> rhs) const {
  if (ac_ == std::complex<double>{} || branches_.empty()) return;
  // Branch equation Vp - Vm - Vsrc = 0: the phasor lands on the RHS.
  rhs[static_cast<std::size_t>(branches_[0])] += ac_;
}

CurrentSource::CurrentSource(std::string name, int positive, int negative,
                             std::shared_ptr<Waveform> waveform)
    : Device(std::move(name)), waveform_(std::move(waveform)) {
  OXMLC_CHECK(waveform_ != nullptr, "current source " + name_ + ": null waveform");
  nodes_ = {positive, negative};
}

CurrentSource::CurrentSource(std::string name, int positive, int negative, double dc_value)
    : CurrentSource(std::move(name), positive, negative,
                    std::make_shared<spice::DcWaveform>(dc_value)) {}

void CurrentSource::stamp(const StampContext& ctx, Stamper& stamper) {
  const double i = waveform_->value(ctx.time) * ctx.source_scale;
  // Current flows from n+ through the source to n-: leaves n+, enters n-.
  stamper.residual(nodes_[0], i);
  stamper.residual(nodes_[1], -i);
}

std::vector<double> CurrentSource::breakpoints(double horizon) const {
  return waveform_->breakpoints(horizon);
}

void CurrentSource::set_waveform(std::shared_ptr<Waveform> waveform) {
  OXMLC_CHECK(waveform != nullptr, "current source " + name_ + ": null waveform");
  waveform_ = std::move(waveform);
}

void CurrentSource::set_ac(double magnitude) { ac_ = {magnitude, 0.0}; }

void CurrentSource::stamp_ac_source(std::span<std::complex<double>> rhs) const {
  if (ac_ == std::complex<double>{}) return;
  // Residual form carries +i at n+ (leaving): the excitation moves to the RHS
  // with opposite sign at n+, same at n-.
  if (nodes_[0] >= 0) rhs[static_cast<std::size_t>(nodes_[0])] -= ac_;
  if (nodes_[1] >= 0) rhs[static_cast<std::size_t>(nodes_[1])] += ac_;
}

Vcvs::Vcvs(std::string name, int out_pos, int out_neg, int ctrl_pos, int ctrl_neg, double gain)
    : Device(std::move(name)), gain_(gain) {
  nodes_ = {out_pos, out_neg, ctrl_pos, ctrl_neg};
}

void Vcvs::stamp(const StampContext& ctx, Stamper& stamper) {
  const int p = nodes_[0], m = nodes_[1], cp = nodes_[2], cm = nodes_[3], br = branches_[0];
  const double i_br = ctx.x[static_cast<std::size_t>(br)];
  stamper.residual(p, i_br);
  stamper.residual(m, -i_br);
  stamper.jacobian(p, br, 1.0);
  stamper.jacobian(m, br, -1.0);

  stamper.residual(br, v(ctx, p) - v(ctx, m) - gain_ * (v(ctx, cp) - v(ctx, cm)));
  stamper.jacobian(br, p, 1.0);
  stamper.jacobian(br, m, -1.0);
  stamper.jacobian(br, cp, -gain_);
  stamper.jacobian(br, cm, gain_);
}

Vccs::Vccs(std::string name, int out_pos, int out_neg, int ctrl_pos, int ctrl_neg,
           double transconductance)
    : Device(std::move(name)), gm_(transconductance) {
  nodes_ = {out_pos, out_neg, ctrl_pos, ctrl_neg};
}

void Vccs::stamp(const StampContext& ctx, Stamper& stamper) {
  const int p = nodes_[0], m = nodes_[1], cp = nodes_[2], cm = nodes_[3];
  const double i = gm_ * (v(ctx, cp) - v(ctx, cm));
  stamper.residual(p, i);
  stamper.residual(m, -i);
  stamper.jacobian(p, cp, gm_);
  stamper.jacobian(p, cm, -gm_);
  stamper.jacobian(m, cp, -gm_);
  stamper.jacobian(m, cm, gm_);
}

Cccs::Cccs(std::string name, int out_pos, int out_neg, const VoltageSource& sensor,
           double gain)
    : Device(std::move(name)), sensor_(sensor), gain_(gain) {
  nodes_ = {out_pos, out_neg};
}

void Cccs::stamp(const StampContext& ctx, Stamper& stamper) {
  const int sensor_branch = sensor_.branch_index();
  OXMLC_CHECK(sensor_branch >= 0, "CCCS " + name_ + ": sensor source not finalized");
  const double i_sense = ctx.x[static_cast<std::size_t>(sensor_branch)];
  const double i = gain_ * i_sense;
  stamper.residual(nodes_[0], i);
  stamper.residual(nodes_[1], -i);
  stamper.jacobian(nodes_[0], sensor_branch, gain_);
  stamper.jacobian(nodes_[1], sensor_branch, -gain_);
}

Ccvs::Ccvs(std::string name, int out_pos, int out_neg, const VoltageSource& sensor,
           double transresistance)
    : Device(std::move(name)), sensor_(sensor), r_(transresistance) {
  nodes_ = {out_pos, out_neg};
}

void Ccvs::stamp(const StampContext& ctx, Stamper& stamper) {
  const int sensor_branch = sensor_.branch_index();
  OXMLC_CHECK(sensor_branch >= 0, "CCVS " + name_ + ": sensor source not finalized");
  const int p = nodes_[0], m = nodes_[1], br = branches_[0];
  const double i_br = ctx.x[static_cast<std::size_t>(br)];
  stamper.residual(p, i_br);
  stamper.residual(m, -i_br);
  stamper.jacobian(p, br, 1.0);
  stamper.jacobian(m, br, -1.0);

  const double i_sense = ctx.x[static_cast<std::size_t>(sensor_branch)];
  stamper.residual(br, v(ctx, p) - v(ctx, m) - r_ * i_sense);
  stamper.jacobian(br, p, 1.0);
  stamper.jacobian(br, m, -1.0);
  stamper.jacobian(br, sensor_branch, -r_);
}

VSwitch::VSwitch(std::string name, int a, int b, int ctrl_pos, int ctrl_neg,
                 const Params& params)
    : Device(std::move(name)), params_(params) {
  OXMLC_CHECK(params.r_on > 0.0 && params.r_off > params.r_on,
              "switch " + name_ + ": need 0 < r_on < r_off");
  OXMLC_CHECK(params.transition > 0.0, "switch " + name_ + ": transition must be positive");
  nodes_ = {a, b, ctrl_pos, ctrl_neg};
}

double VSwitch::conductance(double v_ctrl) const {
  const double g_on = 1.0 / params_.r_on;
  const double g_off = 1.0 / params_.r_off;
  const double sign = params_.active_low ? -1.0 : 1.0;
  const double s =
      0.5 * (1.0 + std::tanh(sign * (v_ctrl - params_.threshold) / params_.transition));
  // Log-space interpolation keeps conductance positive over many decades.
  return g_off * std::pow(g_on / g_off, s);
}

void VSwitch::stamp(const StampContext& ctx, Stamper& stamper) {
  const int a = nodes_[0], b = nodes_[1], cp = nodes_[2], cm = nodes_[3];
  const double vab = v(ctx, a) - v(ctx, b);
  const double vc = v(ctx, cp) - v(ctx, cm);
  const double g = conductance(vc);

  // dg/dvc via chain rule on the log-space interpolation.
  const double g_on = 1.0 / params_.r_on;
  const double g_off = 1.0 / params_.r_off;
  const double sign = params_.active_low ? -1.0 : 1.0;
  const double u = sign * (vc - params_.threshold) / params_.transition;
  const double ds_dvc =
      sign * 0.5 / (params_.transition * std::cosh(u) * std::cosh(u));
  const double dg_dvc = g * std::log(g_on / g_off) * ds_dvc;

  const double i = g * vab;
  stamper.residual(a, i);
  stamper.residual(b, -i);
  stamper.jacobian(a, a, g);
  stamper.jacobian(a, b, -g);
  stamper.jacobian(b, a, -g);
  stamper.jacobian(b, b, g);
  stamper.jacobian(a, cp, dg_dvc * vab);
  stamper.jacobian(a, cm, -dg_dvc * vab);
  stamper.jacobian(b, cp, -dg_dvc * vab);
  stamper.jacobian(b, cm, dg_dvc * vab);
}

}  // namespace oxmlc::dev
