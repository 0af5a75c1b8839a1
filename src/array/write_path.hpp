// Full-circuit (transistor-level) testbench of the terminated RESET write
// path: Fig. 7b of the paper.
//
//   SL driver --- SL parasitics --- [access NMOS] --- BE
//                                                      |
//                                                   OxRAM cell
//                                                      |
//   termination (Fig. 7a) --- BL parasitics (1 pF) --- TE/BL
//
// The WL is driven through its own ladder. During the RST pulse the
// termination circuit's inverter output falls when Icell reaches IrefR; a
// transient event watches that node and, after the control-logic delay,
// commands the SL driver's StoppablePulse to ramp down — reproducing the
// "stop pulse to the SL driver" of paper §3.2.
//
// The driver, the column, the stop event and the transient settings are the
// shared write-path core (write_stack.hpp); this testbench adds the SL and WL
// ladders and makes the SL driver its stop target. The cell is the nominal
// oxram::OxramParams, SET at g_min, and the comparator the default
// TerminationSizing.
#pragma once

#include <memory>
#include <optional>

#include "array/write_stack.hpp"

namespace oxmlc::array {

struct WritePathConfig {
  LineParasitics bl = LineParasitics::paper_bit_line();
  LineParasitics sl = LineParasitics::paper_source_line();
  LineParasitics wl = LineParasitics::paper_word_line();
  double r_driver = kDriverResistance;   // SL driver output resistance

  double pulse_width = oxram::kResetStandardWidth;  // MLC runs longer
  std::optional<double> iref;            // termination reference; nullopt = standard pulse
  double t_stop = 4.0e-6;                // simulation horizon
};

struct WritePathResult : ColumnResult {
  spice::TransientResult transient;
  double energy_source = 0.0;     // SL-driver energy for the operation
  // Probe indices into transient.probe_values.
  static constexpr std::size_t kProbeIcell = 0;
  static constexpr std::size_t kProbeVcell = 1;
  static constexpr std::size_t kProbeVout = 2;  // comparator output
  static constexpr std::size_t kProbeGap = 3;
  static constexpr std::size_t kProbeVsl = 4;   // SL driver
};

// Assembled testbench; reusable across runs only by rebuilding (cheap).
class WritePath {
 public:
  explicit WritePath(const WritePathConfig& config);

  // Runs the RESET operation (terminated if config.iref is set).
  WritePathResult run();

  spice::Circuit& circuit() { return circuit_; }

  // Applies per-trial mismatch to the termination circuit and the access
  // transistor. Call before run() in Monte-Carlo loops.
  void apply_mismatch(const MismatchModel& model, Rng& rng);

 private:
  WritePathConfig config_;
  spice::Circuit circuit_;
  CellColumn column_;  // its BL ladder ends at the termination input
  TerminationCircuit termination_;
  std::shared_ptr<spice::StoppablePulse> sl_pulse_;
};

}  // namespace oxmlc::array
