#include "array/word_path.hpp"

#include <algorithm>

#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "util/error.hpp"

namespace oxmlc::array {

WordPath::WordPath(const WordPathConfig& config) : config_(config) {
  OXMLC_CHECK(!config.irefs.empty(), "WordPath: need at least one bit line");

  auto& c = circuit_;
  const int vdd = c.node("vdd");
  c.add<dev::VoltageSource>("Vdd", vdd, spice::kGround, dev::tech130hv::kVdd);

  // Shared SL driver: its pulse runs the full width (per-bit stop happens at
  // the bit lines, not here).
  const SlDriver sl_driver = build_sl_driver(c, config.pulse_width, kDriverResistance);
  const int sl =
      build_rc_line(c, "sl", sl_driver.out, LineParasitics::paper_source_line()).back();

  const int wl = c.node("wl");
  c.add<dev::VoltageSource>("Vwl", wl, spice::kGround, oxram::kResetWlVoltage);

  const oxram::OxramParams cell;
  for (std::size_t b = 0; b < config.irefs.size(); ++b) {
    const std::string id = std::to_string(b);
    const CellColumn column = build_cell_column(c, id, sl, wl, cell, cell.g_min,
                                                LineParasitics::paper_bit_line());
    cells_.push_back(column.cell);

    // Per-bit stop: a pass gate between the BL ladder and the termination
    // input, conducting while its control is high; the stop event drops the
    // control, isolating this bit line (cell current -> 0).
    const int term_in = c.node("term_in" + id);
    const int gate_ctrl = c.node("gctl" + id);
    gate_controls_.push_back(
        build_stop_gate(c, "gctl" + id, gate_ctrl, dev::tech130hv::kVdd, config.t_stop));
    dev::VSwitch::Params sw;
    sw.threshold = 0.5 * dev::tech130hv::kVdd;
    sw.transition = 0.1;
    sw.r_on = 50.0;
    sw.r_off = 1e9;
    c.add<dev::VSwitch>("Sstop" + id, column.bl_end, term_in, gate_ctrl, spice::kGround,
                        sw);
    // Program inhibit: once the pass gate opens, the bit line must neither
    // float (its ~1 pF of stored charge would fire a SET pulse into the cell
    // when the shared SL falls) nor be grounded (that is the standard-RST
    // configuration and would keep RESETTING the cell). The finished bit
    // line is instead tied to the *source line* through an active-low clamp:
    // the cell voltage collapses to ~0 and tracks the SL through its fall —
    // the same inhibit idea NAND program-inhibit uses.
    dev::VSwitch::Params clamp;
    clamp.threshold = 0.5 * dev::tech130hv::kVdd;
    clamp.transition = 0.1;
    clamp.r_on = 500.0;
    clamp.r_off = 1e9;
    clamp.active_low = true;
    c.add<dev::VSwitch>("Sinhibit" + id, column.bl_end, sl, gate_ctrl, spice::kGround,
                        clamp);

    terminations_.push_back(
        build_termination_circuit(c, "term" + id, term_in, vdd, config.irefs[b]));
  }
  c.finalize();
}

WordPathResult WordPath::run() {
  spice::MnaSystem system(circuit_);
  const std::size_t n = config_.irefs.size();

  std::vector<spice::Probe> probes;
  for (std::size_t b = 0; b < n; ++b) {
    probes.push_back(cell_current_probe("icell" + std::to_string(b), *cells_[b]));
    const auto out = static_cast<std::size_t>(terminations_[b].out);
    probes.push_back({"vout" + std::to_string(b),
                      [out](double, std::span<const double> x) { return x[out]; }});
  }

  WordPathResult result;
  result.bits.resize(n);
  std::vector<spice::TransientEvent> events;
  for (std::size_t b = 0; b < n; ++b) {
    events.push_back(comparator_stop_event("stop" + std::to_string(b), terminations_[b],
                                           gate_controls_[b], result.bits[b]));
  }
  result.transient = spice::run_transient(system, write_transient_options(config_.t_stop),
                                          probes, std::move(events));
  for (std::size_t b = 0; b < n; ++b) {
    record_final_state(result.bits[b], *cells_[b]);
    result.word_latency = std::max(result.word_latency, result.bits[b].t_terminate);
  }
  return result;
}

}  // namespace oxmlc::array
