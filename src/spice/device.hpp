// Device interface for the MNA engine.
//
// oxmlc uses a residual formulation: each device contributes its terminal
// currents to the KCL residual F(x) and its small-signal linearization to the
// Jacobian J(x). Newton then solves J dx = -F. Linear devices contribute
// constants; nonlinear devices (MOSFET, diode, OxRAM) re-linearize each call.
//
// Unknown vector layout: x = [node voltages..., branch currents...]. Ground is
// index -1 and is never part of x; the Stamper silently drops ground rows and
// columns, so device code never special-cases it.
#pragma once

#include <complex>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "numeric/sparse_matrix.hpp"

namespace oxmlc::spice {

namespace analyze {
struct Diagnostic;
}  // namespace analyze

inline constexpr int kGround = -1;

// DC-coupling classification of a terminal pair, used by the static analyzer
// (spice/analyze) to reason about the circuit graph without dynamic_casts:
// every device self-describes how it couples its terminals at DC.
enum class EdgeKind {
  kConductance,    // finite DC conductance path (resistor, diode, channel, cell)
  kVoltageSource,  // ideal voltage constraint (V/E/H sources, DC-shorted inductor)
  kCurrentSource,  // forced current independent of the node voltages (I/G/F)
  kCapacitive,     // open at DC
};

struct StructuralEdge {
  int a = kGround;
  int b = kGround;
  EdgeKind kind = EdgeKind::kConductance;
};

enum class AnalysisMode { kDcOperatingPoint, kTransient };

// The node-to-ground convergence shunt every solve lands on (DC gmin stepping
// starts above it) and the static analyzer mirrors.
inline constexpr double kGmin = 1e-12;

// Everything a device needs to know about the current solver step. Transient
// steps are Backward Euler, the one integration method.
struct StampContext {
  AnalysisMode mode = AnalysisMode::kDcOperatingPoint;
  double time = 0.0;           // end-of-step time (transient) or 0 (DC)
  double dt = 0.0;             // current step size (transient only)
  double gmin = kGmin;         // convergence shunt applied by nonlinear devices
  double source_scale = 1.0;   // source-stepping homotopy factor (DC only)
  std::span<const double> x;   // current Newton iterate
};

// Ground-aware stamping facade over the Jacobian triplets and residual. A
// null Jacobian evaluates the residual only: jacobian() stamps drop, and the
// residual sums the same terms in the same order.
class Stamper {
 public:
  Stamper(num::TripletMatrix* jacobian, std::span<double> residual)
      : jacobian_(jacobian), residual_(residual) {}

  // dF_row/dx_col += value
  void jacobian(int row, int col, double value) {
    if (jacobian_ == nullptr || row < 0 || col < 0) return;
    jacobian_->add(static_cast<std::size_t>(row), static_cast<std::size_t>(col), value);
  }

  // F_row += value (current leaving `row`'s node, or branch equation value)
  void residual(int row, double value) {
    if (row < 0) return;
    residual_[static_cast<std::size_t>(row)] += value;
  }

  // Linear conductance g between nodes a and b: full 4-entry stamp plus the
  // corresponding residual contribution g*(Va-Vb).
  void conductance(int a, int b, double g, double va, double vb) {
    const double i = g * (va - vb);
    residual(a, i);
    residual(b, -i);
    jacobian(a, a, g);
    jacobian(a, b, -g);
    jacobian(b, a, -g);
    jacobian(b, b, g);
  }

 private:
  num::TripletMatrix* jacobian_;
  std::span<double> residual_;
};

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  // Number of extra unknowns (branch currents) this device introduces.
  virtual std::size_t branch_count() const { return 0; }

  // Adds this device's contribution at iterate ctx.x.
  virtual void stamp(const StampContext& ctx, Stamper& stamper) = 0;

  // Called once after the DC operating point with the converged solution so
  // devices with memory can initialize their history (capacitor voltage, ...).
  virtual void init_state(const StampContext& ctx) { (void)ctx; }

  // Called after each *accepted* transient step with the converged solution.
  virtual void commit_step(const StampContext& ctx) { (void)ctx; }

  // Largest next step the device tolerates at the committed state; the
  // transient engine takes the minimum over devices. Default: unconstrained.
  virtual double recommend_dt(const StampContext& ctx) const {
    (void)ctx;
    return std::numeric_limits<double>::infinity();
  }

  // Waveform corner times in [0, horizon] the transient engine should land
  // steps on (sources forward their waveform's breakpoints).
  virtual std::vector<double> breakpoints(double horizon) const {
    (void)horizon;
    return {};
  }

  // --- AC (small-signal) analysis hooks ---
  // Reactive stamps: the AC system is A(w) = G(op) + j*w*B, where G is the
  // Newton Jacobian at the operating point (assemble() provides it) and B
  // collects charge/flux derivatives: capacitors stamp +/-C on their node
  // pairs, inductors stamp -L on their branch diagonal. Default: none.
  virtual void stamp_reactive(num::TripletMatrix& b) const { (void)b; }

  // AC excitation: phasor contributions to the complex right-hand side at the
  // device's own rows (independent sources with an AC specification).
  virtual void stamp_ac_source(std::span<std::complex<double>> rhs) const { (void)rhs; }

  // --- static-analysis hooks (spice/analyze) ---
  // DC-coupling edges between this device's terminals. The default declares a
  // conductive path between every terminal pair, which is correct for
  // intrinsically conductive two-terminal devices (resistor, diode, OxRAM);
  // sources, reactive devices and field-effect devices override it.
  virtual std::vector<StructuralEdge> dc_edges() const {
    std::vector<StructuralEdge> edges;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes_.size(); ++j) {
        edges.push_back({nodes_[i], nodes_[j], EdgeKind::kConductance});
      }
    }
    return edges;
  }

  // Parameter-level lint: devices append findings (severity/code/message set;
  // the analyzer fills in the device name and terminal node names). Default:
  // nothing to report.
  virtual void self_check(std::vector<analyze::Diagnostic>& out) const { (void)out; }

  std::span<const int> nodes() const { return nodes_; }
  std::span<const int> branches() const { return branches_; }

  // Called by Circuit::finalize() to hand out branch unknown indices.
  void assign_branches(std::span<const int> branch_indices) {
    branches_.assign(branch_indices.begin(), branch_indices.end());
  }

 protected:
  // Voltage of unknown index n at iterate x (0 for ground).
  static double v(const StampContext& ctx, int n) {
    return n < 0 ? 0.0 : ctx.x[static_cast<std::size_t>(n)];
  }

  std::string name_;
  std::vector<int> nodes_;      // resolved unknown indices of terminals
  std::vector<int> branches_;   // resolved unknown indices of branch currents
};

}  // namespace oxmlc::spice
