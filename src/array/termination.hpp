// The RESET write-termination circuit of Fig. 7a, at two fidelity levels.
//
// Transistor level (build_termination_circuit): the exact topology of the
// paper — an NMOS current mirror (M1, M2) copies the cell current arriving on
// the bit line; a PMOS mirror (M3, M4) mirrors the reference current IrefR
// (provided through M5, M6 from a bandgap-stabilized source, which we model as
// an ideal DC current source per DESIGN.md); node A carries the contention
// (IrefR - Icell_copy); inverter I1 converts it to the rail-to-rail `out`.
// out = high while Icell > IrefR; out falls when Icell drops to IrefR, which
// the control logic turns into a stop pulse for the SL driver.
//
// Behavioral level (TerminationBehavior): the same decision rule as a current
// threshold with an effective offset sampled from the transistor mismatch of
// the two mirrors plus a fixed comparator delay (oxram::kTerminationDelay).
// Used by the fast Monte-Carlo path; the ablation bench quantifies its error
// against the transistor level.
#pragma once

#include <string>

#include "array/mismatch.hpp"
#include "devices/mosfet.hpp"
#include "devices/sources.hpp"
#include "oxram/fast_cell.hpp"
#include "spice/circuit.hpp"

namespace oxmlc::array {

// The two matching-critical mirrors of Fig. 7a: long-channel and wide, the
// classic analog sizing. The termination accuracy is the margin budget
// (Fig. 12), so the mirrors get area (Pelgrom: sigma ~ 1/sqrt(WL)) while Vov
// stays small enough to keep headroom over 6-36 uA. Both legs of a mirror
// share its size. The defaults are what build_termination_circuit
// instantiates; the mirror-sizing ablation resizes them in the behavioral
// model only.
struct TerminationSizing {
  // M1 (diode input) and M2 (copy leg).
  dev::MosfetParams copy_mirror = oxram::mirror_nmos();
  // M3 (IrefR diode) and M4 (IrefR out leg).
  dev::MosfetParams reference_mirror = dev::tech130hv::pmos(60e-6, 3e-6);
};

// Handle to the devices of one instantiated termination circuit.
struct TerminationCircuit {
  int bl = spice::kGround;        // input: bit line (cell current sink)
  int node_a = spice::kGround;    // comparison node (inverter input)
  int out = spice::kGround;       // comparator output
  dev::Mosfet* m1 = nullptr;
  dev::Mosfet* m2 = nullptr;
  dev::Mosfet* m3 = nullptr;
  dev::Mosfet* m4 = nullptr;
  dev::Mosfet* m5 = nullptr;
  dev::Mosfet* m6 = nullptr;
  dev::Mosfet* inv_n = nullptr;
  dev::Mosfet* inv_p = nullptr;

  // Applies fresh Pelgrom mismatch to every transistor (one MC trial).
  void apply_mismatch(const MismatchModel& model, Rng& rng) const;
};

// Instantiates the Fig. 7a circuit with the default TerminationSizing. `bl`
// is the existing bit-line node the cell current arrives on; `vdd_node` the
// dev::tech130hv::kVdd supply node. Node names are prefixed so several
// instances (one per bit line, as in the paper's word-parallel RST) can
// coexist.
TerminationCircuit build_termination_circuit(spice::Circuit& circuit,
                                             const std::string& prefix, int bl,
                                             int vdd_node, double iref);

// Behavioral equivalent: effective reference current as seen at the bit line,
// including mirror mismatch. The end-to-end decision delay is
// oxram::kTerminationDelay, which every terminated ResetOperation applies.
struct TerminationBehavior {
  TerminationSizing sizing;
  MismatchModel mismatch;

  // Relative 1-sigma error of the effective termination current at nominal
  // current `iref`: both mirror pairs contribute.
  double iref_sigma_rel(double iref) const;

  // Samples the effective termination current for one trial.
  double sample_effective_iref(double iref, Rng& rng) const;
};

}  // namespace oxmlc::array
