// The write-path core every transistor-level write testbench is built from
// (paper §3.2, §4.2, Figs. 6, 7a, 7b): the SL driver, the 1T-1R column on its
// bit-line ladder, the gate a stop event drops, the Fig. 7a comparator's stop
// event, the write-transient settings, the per-column result and the SL
// source energy. WritePath, WordPath and BankWritePath add only their own
// line wiring and per-column stop element on top.
//
// The pulse, the access device and the read point are the paper's operating
// point (oxram/fast_cell.hpp); the constants below exist only at transistor
// level. Each builder creates its nodes and devices in a fixed order, so a
// testbench that calls them in its own fixed order keeps its MNA unknown
// numbering, and with it every pivot and result.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "array/parasitics.hpp"
#include "array/termination.hpp"
#include "oxram/device.hpp"
#include "oxram/fast_cell.hpp"
#include "spice/transient.hpp"

namespace oxmlc::array {

inline constexpr double kDriverResistance = 100.0;  // Ohm, SL driver output
inline constexpr double kLogicDelay = 10e-9;  // s, comparator flip to stop-target fall
// The bank's column-select switch and its gate drive.
inline constexpr double kSelectGateVoltage = 3.3;  // V
inline dev::MosfetParams column_select_nmos() {
  return dev::tech130hv::nmos(1.6e-6, 0.5e-6);
}
// The paper's 1 Kbyte array (§4.2): paper_*_line() are full-length lines of
// this many cells, and a bank scales them to its size.
inline constexpr std::size_t kReferenceRows = 1024;
inline constexpr std::size_t kReferenceCols = 1024;

// What one bit line's RESET ended in.
struct ColumnResult {
  bool terminated = false;
  double t_terminate = 0.0;       // comparator flip time
  double final_gap = 0.0;
  double final_resistance = 0.0;  // cell R at oxram::kReadVoltage (model evaluation)
};

// Records the cell's programmed state once the run is over.
void record_final_state(ColumnResult& column, const oxram::OxramDevice& cell);

struct SlDriver {
  std::shared_ptr<spice::StoppablePulse> pulse;  // 0 -> kResetSlVoltage, stoppable
  int source = spice::kGround;                   // node "sl_drv"
  int out = spice::kGround;  // node "sl_rdrv", after the driver resistance
};

// The SL driver: Table 1's RESET pulse (oxram::kResetSlVoltage, kResetEdge
// edges) with a `width` plateau, as a StoppablePulse behind the driver's
// output resistance. A pulse no event stops is the plain pulse.
SlDriver build_sl_driver(spice::Circuit& circuit, double width, double r_driver);

struct CellColumn {
  oxram::OxramDevice* cell = nullptr;
  dev::Mosfet* access = nullptr;
  int be = spice::kGround;      // access drain / cell bottom electrode
  int te = spice::kGround;      // cell top electrode, the BL ladder's start
  int bl_end = spice::kGround;  // far end of the BL ladder
};

// One 1T-1R column, named by suffix `id`: node "be", access NMOS "Macc"
// (oxram::access_nmos(), SL -> BE, gate on the WL), node "te", the OxRAM
// cell at `gap` (TE first: V(TE) < V(BE) during RESET), then the BL ladder
// "bl" from the TE.
CellColumn build_cell_column(spice::Circuit& circuit, const std::string& id, int sl,
                             int wl, const oxram::OxramParams& cell, double gap,
                             const LineParasitics& bl);

// A gate held at `v_high` from 1 ns until a stop event commands its 5 ns fall,
// driven onto `node` by source "V<name>". The pulse is wider than `t_stop`, so
// only a stop ends it inside the run.
std::shared_ptr<spice::StoppablePulse> build_stop_gate(spice::Circuit& circuit,
                                                       const std::string& name, int node,
                                                       double v_high, double t_stop);

// The Fig. 7a stop event: the comparator output falling through vdd/2,
// located to 2 ns, commands `target`'s fall kLogicDelay later and records the
// flip time in `column`, which must outlive the run.
spice::TransientEvent comparator_stop_event(const std::string& name,
                                            const TerminationCircuit& termination,
                                            std::shared_ptr<spice::StoppablePulse> target,
                                            ColumnResult& column);

// The step cap and Newton iteration limit every write transient runs with.
spice::TransientOptions write_transient_options(double t_stop);

// RESET cell current (BE -> TE) as a positive magnitude.
spice::Probe cell_current_probe(std::string name, const oxram::OxramDevice& cell);

// SL source energy: the integral of V_SL times the summed cell currents (the
// WL draws no DC current, so the cells carry the whole driver current).
double sl_source_energy(const spice::TransientResult& transient, std::size_t vsl_probe,
                        const std::vector<std::size_t>& icell_probes);

}  // namespace oxmlc::array
