// Full-bank (word-parallel) terminated-RESET write path: `columns` 1T-1R
// stacks on one selected word line, each with its own bit-line parasitics,
// column-select switch and per-BL termination circuit (the paper's MLC RST
// writes a whole word in parallel, one termination comparator per bit line).
//
//              vdd ──────────────────────────────┬───────────┐
//   SL driver ── Rdrv ── SL ladder tap0 ── tap1 ── ... (border)
//                          │                │
//                       [Macc_0]         [Macc_1]        per-column block:
//   WL driver ── WL ladder tap0 ── tap1 ...(border)      access NMOS, cell,
//                          │                │            BL ladder, column-
//                        cell_0           cell_1         select NMOS, Fig. 7a
//                          │                │            termination, csel
//                       BL ladder        BL ladder       gate driver
//                          │                │
//                       [Msel_0]         [Msel_1]
//                          │                │
//                       term_0           term_1
//
// The shared unknowns — SL/WL ladder taps, the supply, the driver nodes —
// form exactly the border of a bordered-block-diagonal Jacobian; every other
// unknown belongs to one column. The builder records that border, derives the
// num::BlockPartition through spice::analyze::derive_partition, and (when
// config.hierarchical) installs it on the MnaSystem so the transient runs
// through num::BlockSchurLu. With config.hierarchical = false the same
// netlist solves monolithically — the equivalence tests pin both paths to
// each other at 1e-9 while they accept the same time points (rounding can
// flip an adaptive step decision; see BankEquivalenceProperty).
//
// When a column's comparator fires, the control logic drops that column's
// select gate (StoppablePulse on csel_j) after the logic delay, cutting the
// cell current without disturbing the shared SL pulse — per-BL termination as
// in §3.2 of the paper, generalized to word-parallel operation.
//
// The SL driver, the columns, the select-gate drivers, the stop events and
// the transient settings are the shared write-path core (write_stack.hpp);
// this testbench adds the tapped SL/WL lines, the column selects, the
// partition and the early stop. Its lines are the paper's kReferenceRows x
// kReferenceCols array lines scaled to the bank; every comparator is the
// default TerminationSizing.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "array/write_stack.hpp"
#include "numeric/schur_lu.hpp"

namespace oxmlc::array {

struct BankWritePathConfig {
  oxram::OxramParams cell;  // every column starts SET, at cell.g_min
  std::size_t columns = 32;
  std::size_t rows = 32;  // scales per-column BL parasitics below
  // BL ladder sections per column: 0 = auto (scales with rows, min 2).
  std::size_t bl_segments = 0;

  double pulse_width = oxram::kResetStandardWidth;

  // Per-column reference currents (MLC: each bit line terminates at its own
  // level's IrefR). A column beyond the vector or with a non-positive entry
  // gets no termination comparator.
  std::vector<double> irefs;
  double t_stop = 4.0e-6;
  // When set, stop the transient this long after the LAST comparator fires
  // (once every comparator-equipped column has terminated). The select gates
  // are down by then, so only sub-threshold leakage remains — truncating the
  // tail moves the final gap by well under 1% while cutting the step count
  // roughly in half; the memsys fidelity tier relies on this to keep
  // per-sample cost bounded. Columns without a comparator never gate the
  // stop; if any comparator never fires the run goes to t_stop as usual.
  std::optional<double> stop_after_terminated;

  bool hierarchical = true;  // false: same netlist, monolithic solver
};

struct BankWritePathResult {
  spice::TransientResult transient;
  std::vector<ColumnResult> columns;
  double energy_source = 0.0;  // SL-driver energy over all columns
  std::size_t unknowns = 0;
  std::size_t border_size = 0;
  std::size_t blocks = 0;
  // Probe layout: 2 per column (icell_j, gap_j), then vsl last.
};

class BankWritePath {
 public:
  explicit BankWritePath(const BankWritePathConfig& config);

  // Runs the word-parallel RESET (terminated per column when that column has
  // a reference current in config.irefs).
  BankWritePathResult run();

  spice::Circuit& circuit() { return circuit_; }
  const num::BlockPartition& partition() const { return partition_; }

 private:
  BankWritePathConfig config_;
  spice::Circuit circuit_;
  num::BlockPartition partition_;
  std::shared_ptr<spice::StoppablePulse> sl_pulse_;
  std::vector<oxram::OxramDevice*> cells_;
  std::vector<TerminationCircuit> terminations_;
  std::vector<std::shared_ptr<spice::StoppablePulse>> csel_pulses_;
};

}  // namespace oxmlc::array
