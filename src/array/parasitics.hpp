// Bit-line / word-line / source-line parasitic modelling.
//
// Paper §4.2: "BL and WL lengths have been modelled to mimic a 1 Kbyte array
// (1024 WLs x 1024 BLs). A 1 pF bit line capacitance is used ... parasitic
// resistances distributed along BLs and WLs have been inserted following the
// methodology developed in [25]" (10 Ohm/um for a 50 nm copper wire [25]).
#pragma once

#include <string>
#include <vector>

#include "spice/circuit.hpp"

namespace oxmlc::array {

struct LineParasitics {
  double total_resistance = 0.0;   // Ohm, end to end
  double total_capacitance = 0.0;  // F, to ground
  std::size_t segments = 4;        // RC ladder sections

  // 1 Kbyte-array bit line per the paper: 1024 cells, ~0.2 um pitch -> ~205 um
  // of M4 copper at ~2.5 Ohm/um (130 nm node; the 10 Ohm/um of ref [25] is
  // the 50 nm-wire scaling projection), 1 pF total capacitance.
  static LineParasitics paper_bit_line() { return {512.0, 1e-12, 4}; }
  // Word line: strapped poly/metal, higher R, smaller C (gates only).
  static LineParasitics paper_word_line() { return {4096.0, 0.4e-12, 4}; }
  // Source line: wide metal, low R.
  static LineParasitics paper_source_line() { return {256.0, 0.5e-12, 4}; }

  static LineParasitics none() { return {0.0, 0.0, 0}; }
};

// Builds an RC ladder from `from` and returns the node at the end of each
// segment: "<prefix>_k", the last "<prefix>_end". A line tapped once per
// column hangs each column off one of them. With zero segments or zero R,
// every returned node is `from` (capacitance, if any, is lumped at `from`).
std::vector<int> build_rc_line(spice::Circuit& circuit, const std::string& prefix,
                               int from, const LineParasitics& parasitics);

}  // namespace oxmlc::array
