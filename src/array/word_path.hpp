// Word-parallel terminated RESET at transistor level.
//
// Paper §4.2: "a RST operation is performed in parallel through the SL with a
// predefined compliance current set according to the data bus values at the
// BL driver level. During RST, multi-bit access is guaranteed as one RST
// write termination is associated with a single bit-line."
//
// This testbench instantiates N bit slices — each with its own access
// transistor, OxRAM cell, BL parasitics, pass gate, and Fig. 7a termination
// circuit — hanging off one shared source line and word line. Each slice's
// comparator output drives its own transient event; the callback opens that
// slice's BL pass gate (the per-bit-line stop), freezing the cell while its
// neighbours keep programming. The shared SL pulse simply runs to its full
// width.
//
// The SL driver, the columns, the stop events and the transient settings are
// the shared write-path core (write_stack.hpp); this testbench adds the SL
// ladder, the pass gates and the program-inhibit clamps. Every cell is the
// nominal oxram::OxramParams, SET at g_min, on the paper's bit and source
// lines; every comparator is the default TerminationSizing.
//
// This is the transistor-level proof that the termination scheme supports
// multi-bit (word) access; the fast-path MemoryController models the same
// flow behaviorally at array scale.
#pragma once

#include <memory>
#include <vector>

#include "array/write_stack.hpp"

namespace oxmlc::array {

struct WordPathConfig {
  std::vector<double> irefs = {36e-6, 20e-6, 8e-6};  // one per bit line
  double pulse_width = 8e-6;
  double t_stop = 8.2e-6;
};

struct WordPathResult {
  std::vector<ColumnResult> bits;
  double word_latency = 0.0;  // slowest bit's termination time
  spice::TransientResult transient;
  // Probe layout: for bit b, probe 2*b = Icell_b, probe 2*b+1 = comparator out_b.
};

class WordPath {
 public:
  explicit WordPath(const WordPathConfig& config);

  WordPathResult run();

 private:
  WordPathConfig config_;
  spice::Circuit circuit_;
  std::vector<oxram::OxramDevice*> cells_;
  std::vector<TerminationCircuit> terminations_;
  std::vector<std::shared_ptr<spice::StoppablePulse>> gate_controls_;
};

}  // namespace oxmlc::array
