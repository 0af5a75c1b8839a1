// Fast (non-MNA) simulation of one 1T-1R cell inside its programming stack.
//
// The full-circuit SPICE path resolves every node of the write path; this
// path exploits the structure of that circuit instead: at programming time
// scales (>> RC of the lines) the stack is quasi-static, so the cell current
// is the root of a single monotone scalar equation
//
//   F(I) = Ids_access(Vgs(I), Vds(I)) - I = 0
//
// where the bit-line sink (the diode-connected input mirror of the RESET
// write-termination circuit, Fig. 7a) and the cell I(V, g) law are folded into
// the node voltages. The gap ODE is then advanced with the solved cell
// voltage. The two paths share the same device physics (oxram/model.hpp,
// devices/mosfet.hpp) and are cross-validated by an integration test and the
// behavioral-vs-transistor ablation bench.
//
// FastCell holds one cell's state; its apply_* operations step the pulse
// through a one-lane oxram::CellBatch (batch_kernel.hpp), the only production
// stepping engine, so a single cell and a 4096-lane word take the same code
// path. One terminated RESET costs microseconds of CPU instead of the seconds
// the full-circuit path needs. A serial one-cell stepper is kept only as the
// test oracle (reference_pulse.hpp).
#pragma once

#include <optional>

#include "devices/mosfet.hpp"
#include "oxram/model.hpp"

namespace oxmlc::oxram {

// The paper's operating point, declared once: the fast path, the write
// testbenches (array/write_stack.hpp), the QLC programmer and the reliability
// engine read it from here. The MLC RESET (SL pulse, boosted WL, edges and
// standard plateau) and the READ (BL and WL bias) are Table 1's; the
// termination delay is §3.2's comparator flip to SL-driver stop. Table 1's
// cell-level RESET is the bias the characterization (Fig. 3) and the
// open-loop prior-art baselines apply without the termination stack.
inline constexpr double kResetSlVoltage = 1.60;        // V
inline constexpr double kResetWlVoltage = 3.3;         // V
inline constexpr double kResetEdge = 10e-9;            // s, rise and fall
inline constexpr double kResetStandardWidth = 3.5e-6;  // s
inline constexpr double kCellResetSlVoltage = 1.2;     // V
inline constexpr double kCellResetWlVoltage = 2.5;     // V
inline constexpr double kReadVoltage = 0.3;            // V
inline constexpr double kReadWlVoltage = 2.5;          // V
inline constexpr double kTerminationDelay = 2e-9;      // s
// The access transistor (W = 0.8 um, L = 0.5 um, Fig. 1b) and the Fig. 7a
// input mirror M1/M2, sized wide so its Vgs stays near Vth over 6-36 uA.
inline dev::MosfetParams access_nmos() { return dev::tech130hv::nmos(0.8e-6, 0.5e-6); }
inline dev::MosfetParams mirror_nmos() { return dev::tech130hv::nmos(120e-6, 3e-6); }

// Electrical environment of the cell during an operation.
struct StackConfig {
  dev::MosfetParams access = access_nmos();
  dev::MosfetParams mirror = mirror_nmos();  // BL sink of a terminated RESET
  double r_series = 870.0;      // driver output + SL + BL line resistance (lumped;
                                // a test pins it to the WritePath ladder's 868 Ohm)
  bool bl_through_mirror = false;  // true: BL sinks into the mirror (terminated RST)
};

enum class Polarity { kSet, kReset };

struct StackOperatingPoint {
  double current = 0.0;   // stack current (A), magnitude
  double v_cell = 0.0;    // cell voltage magnitude
  double v_access = 0.0;  // access transistor Vds
  double v_sink = 0.0;    // BL sink (mirror) voltage
};

// Convergence contract shared by the scalar and warm-start stack solvers:
// both stop once the solved current is known to within
//   max(kStackSolveRelTol * I, kStackSolveAbsTol)
// of the true root. The relative tolerance is what the equivalence suite
// pins; the absolute floor equals the resolution the historical fixed
// 52-halving bisection reached from the full [0, 10 mA] bracket, so currents
// too small for the relative criterion converge exactly as before.
inline constexpr double kStackSolveRelTol = 1e-12;
inline constexpr double kStackSolveAbsTol = 10e-3 * 0x1p-52;
inline constexpr int kStackSolveMaxIter = 52;

// Solves the quasi-static stack for a cell with gap `g`.
// `v_drive`: driver voltage (SL for RESET, BL for SET); `v_wl`: word line.
StackOperatingPoint solve_stack(const OxramParams& cell, double g, const StackConfig& stack,
                                Polarity polarity, double v_drive, double v_wl);

// Warm-started variant used by the batch kernel: safeguarded Newton on the
// same residual, seeded with `i_warm` (typically the previous time step's
// current, which the gap ODE moves by <~10 % per step). Converges to the same
// root within the shared tolerances in a handful of evaluations instead of
// ~52 bisection halvings. `i_warm <= 0` means no warm information (the solver
// then starts from the bracket midpoint).
StackOperatingPoint solve_stack_warm(const OxramParams& cell, double g,
                                     const StackConfig& stack, Polarity polarity,
                                     double v_drive, double v_wl, double i_warm);

// Trapezoidal programming pulse.
struct PulseShape {
  double amplitude = 1.5;  // V
  double rise = 10e-9;     // s
  double width = 3.5e-6;   // s (plateau)
  double fall = 10e-9;     // s
};

struct OperationResult {
  bool terminated = false;   // write termination fired (RESET only)
  double t_terminate = 0.0;  // crossing time (= RST latency reported in Fig. 13b)
  double t_end = 0.0;        // end of the operation (incl. commanded ramp-down)
  double final_gap = 0.0;
  double energy_source = 0.0;  // integral of V_drive * I  (what Fig. 13a reports)
  double energy_cell = 0.0;    // integral of V_cell * I
};

// Table 1's RESET: the standard pulse on the SL, the WL boosted.
struct ResetOperation {
  PulseShape pulse{kResetSlVoltage, kResetEdge, kResetStandardWidth, kResetEdge};
  double v_wl = kResetWlVoltage;
  // Termination: the pulse ramps down kTerminationDelay after I falls to
  // iref. nullopt = standard (fixed) pulse.
  std::optional<double> iref;
  double dt_max = 20e-9;
};

struct SetOperation {
  PulseShape pulse{1.2, 5e-9, 100e-9, 5e-9};  // paper: SET pulse ~100 ns
  double v_wl = 2.0;                           // Table 1
  double dt_max = 2e-9;
};

struct FormingOperation {
  PulseShape pulse{3.3, 50e-9, 1e-6, 50e-9};  // Table 1: FMG BL = 3.3 V
  double v_wl = 2.0;
  double dt_max = 10e-9;
};

struct ReadResult {
  double current = 0.0;       // bit-line current the sense amp compares
  double r_cell = 0.0;        // exact cell resistance V_cell / I
  double r_apparent = 0.0;    // V_read / I (includes access-device drop)
};

// One 1T-1R cell with persistent state, programmable through its stack.
class FastCell {
 public:
  FastCell(const OxramParams& params, const StackConfig& stack, double initial_gap,
           bool virgin = false);

  // Convenience: a formed cell in the SET (LRS) state.
  static FastCell formed_lrs(const OxramParams& params, const StackConfig& stack);

  // One pulse through a one-lane CellBatch: bitwise the result this cell
  // would get as any lane of a wider batch.
  OperationResult apply_reset(const ResetOperation& op);
  OperationResult apply_set(const SetOperation& op);
  OperationResult apply_forming(const FormingOperation& op);

  // Table 1's READ: kReadVoltage on the bit line, kReadWlVoltage on the WL.
  ReadResult read() const;

  double gap() const { return gap_; }
  void set_gap(double gap) { gap_ = gap; }
  bool virgin() const { return virgin_; }
  void set_virgin(bool virgin) { virgin_ = virgin; }

  const OxramParams& params() const { return params_; }
  OxramParams& mutable_params() { return params_; }
  const StackConfig& stack() const { return stack_; }

  // Per-operation C2C rate multiplier (resampled by the caller per pulse).
  void set_rate_factor(double f) { rate_factor_ = f; }
  double rate_factor() const { return rate_factor_; }

 private:
  OxramParams params_;
  StackConfig stack_;
  double gap_;
  bool virgin_;
  double rate_factor_ = 1.0;
};

}  // namespace oxmlc::oxram
