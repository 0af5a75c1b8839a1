#include "devices/passive.hpp"

#include <cstdio>

#include "spice/analyze/diagnostic.hpp"
#include "util/error.hpp"

namespace oxmlc::dev {
namespace {

using spice::analyze::Diagnostic;
using spice::analyze::Severity;

// %g formatting: "1e-15" instead of std::to_string's "0.000000".
std::string compact(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", v);
  return buffer;
}

// Value-plausibility lint shared by the passives: constructors already reject
// non-positive values, so the static check targets the unit-typo band — a
// "1f" (femto) resistor or a "1g" (giga) capacitor parses fine but is almost
// certainly a suffix mistake.
void check_plausible(double value, double low, double high, const char* quantity,
                     const char* unit, std::vector<Diagnostic>& out) {
  if (value >= low && value <= high) return;
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.code = spice::analyze::codes::kNonPositivePassive;
  d.message = std::string(quantity) + " of " + compact(value) + " " + unit +
              " is outside the plausible range [" + compact(low) + ", " +
              compact(high) + "] " + unit;
  d.fix_hint = "check the value's SI suffix (m = milli, meg = 1e6, f = femto)";
  out.push_back(std::move(d));
}

}  // namespace

Resistor::Resistor(std::string name, int a, int b, double resistance)
    : Device(std::move(name)), resistance_(resistance) {
  OXMLC_CHECK(resistance > 0.0, "resistor " + name_ + ": resistance must be positive");
  nodes_ = {a, b};
}

void Resistor::stamp(const StampContext& ctx, Stamper& stamper) {
  const double g = 1.0 / resistance_;
  stamper.conductance(nodes_[0], nodes_[1], g, v(ctx, nodes_[0]), v(ctx, nodes_[1]));
}

double Resistor::current(std::span<const double> x) const {
  const double va = nodes_[0] < 0 ? 0.0 : x[static_cast<std::size_t>(nodes_[0])];
  const double vb = nodes_[1] < 0 ? 0.0 : x[static_cast<std::size_t>(nodes_[1])];
  return (va - vb) / resistance_;
}

void Resistor::set_resistance(double r) {
  OXMLC_CHECK(r > 0.0, "resistor " + name_ + ": resistance must be positive");
  resistance_ = r;
}

void Resistor::self_check(std::vector<Diagnostic>& out) const {
  check_plausible(resistance_, 1e-3, 1e12, "resistance", "Ohm", out);
}

Capacitor::Capacitor(std::string name, int a, int b, double capacitance)
    : Device(std::move(name)), capacitance_(capacitance) {
  OXMLC_CHECK(capacitance > 0.0, "capacitor " + name_ + ": capacitance must be positive");
  nodes_ = {a, b};
}

void Capacitor::stamp(const StampContext& ctx, Stamper& stamper) {
  if (ctx.mode == spice::AnalysisMode::kDcOperatingPoint || ctx.dt <= 0.0) {
    // Open circuit in DC; nothing to stamp (global gmin keeps nodes anchored).
    return;
  }
  // Backward Euler: i = C/dt (v - v_prev).
  const double v_now = v(ctx, nodes_[0]) - v(ctx, nodes_[1]);
  const double geq = capacitance_ / ctx.dt;
  const double i = geq * (v_now - v_prev_);
  stamper.residual(nodes_[0], i);
  stamper.residual(nodes_[1], -i);
  stamper.jacobian(nodes_[0], nodes_[0], geq);
  stamper.jacobian(nodes_[0], nodes_[1], -geq);
  stamper.jacobian(nodes_[1], nodes_[0], -geq);
  stamper.jacobian(nodes_[1], nodes_[1], geq);
}

void Capacitor::stamp_reactive(num::TripletMatrix& b) const {
  const int p = nodes_[0], m = nodes_[1];
  auto add = [&](int r, int c, double v) {
    if (r >= 0 && c >= 0) b.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c), v);
  };
  add(p, p, capacitance_);
  add(p, m, -capacitance_);
  add(m, p, -capacitance_);
  add(m, m, capacitance_);
}

void Capacitor::init_state(const StampContext& ctx) {
  v_prev_ = v(ctx, nodes_[0]) - v(ctx, nodes_[1]);
}

void Capacitor::commit_step(const StampContext& ctx) {
  v_prev_ = v(ctx, nodes_[0]) - v(ctx, nodes_[1]);
}

std::vector<spice::StructuralEdge> Capacitor::dc_edges() const {
  return {{nodes_[0], nodes_[1], spice::EdgeKind::kCapacitive}};
}

void Capacitor::self_check(std::vector<Diagnostic>& out) const {
  check_plausible(capacitance_, 1e-18, 1.0, "capacitance", "F", out);
}

Inductor::Inductor(std::string name, int a, int b, double inductance)
    : Device(std::move(name)), inductance_(inductance) {
  OXMLC_CHECK(inductance > 0.0, "inductor " + name_ + ": inductance must be positive");
  nodes_ = {a, b};
}

void Inductor::stamp(const StampContext& ctx, Stamper& stamper) {
  const int a = nodes_[0], b = nodes_[1], br = branches_[0];
  const double i_br = ctx.x[static_cast<std::size_t>(br)];
  // KCL: branch current leaves a, enters b.
  stamper.residual(a, i_br);
  stamper.residual(b, -i_br);
  stamper.jacobian(a, br, 1.0);
  stamper.jacobian(b, br, -1.0);

  const double va = v(ctx, a), vb = v(ctx, b);
  if (ctx.mode == spice::AnalysisMode::kDcOperatingPoint || ctx.dt <= 0.0) {
    // DC: short circuit, V = 0.
    stamper.residual(br, va - vb);
    stamper.jacobian(br, a, 1.0);
    stamper.jacobian(br, b, -1.0);
    return;
  }
  // Backward Euler: v = L/dt (i - i_prev).
  const double req = inductance_ / ctx.dt;
  stamper.residual(br, va - vb - req * i_br + req * i_prev_);
  stamper.jacobian(br, a, 1.0);
  stamper.jacobian(br, b, -1.0);
  stamper.jacobian(br, br, -req);
}

void Inductor::stamp_reactive(num::TripletMatrix& b) const {
  // Branch equation in AC: Vp - Vm - j*w*L*i = 0 -> -L on the branch diagonal.
  if (branches_.empty()) return;
  const int br = branches_[0];
  if (br >= 0) b.add(static_cast<std::size_t>(br), static_cast<std::size_t>(br), -inductance_);
}

void Inductor::init_state(const StampContext& ctx) {
  i_prev_ = ctx.x[static_cast<std::size_t>(branches_[0])];
}

void Inductor::commit_step(const StampContext& ctx) {
  i_prev_ = ctx.x[static_cast<std::size_t>(branches_[0])];
}

std::vector<spice::StructuralEdge> Inductor::dc_edges() const {
  // DC short: participates in voltage-source loop topology.
  return {{nodes_[0], nodes_[1], spice::EdgeKind::kVoltageSource}};
}

void Inductor::self_check(std::vector<Diagnostic>& out) const {
  check_plausible(inductance_, 1e-15, 1e3, "inductance", "H", out);
}

}  // namespace oxmlc::dev
