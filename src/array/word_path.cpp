#include "array/word_path.hpp"

#include <algorithm>

#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace oxmlc::array {

WordPath::WordPath(const WordPathConfig& config) : config_(config) {
  OXMLC_CHECK(!config.irefs.empty(), "WordPath: need at least one bit line");
  OXMLC_CHECK(config.initial_gaps.empty() ||
                  config.initial_gaps.size() == config.irefs.size(),
              "WordPath: initial_gaps must match irefs");

  auto& c = circuit_;
  const int vdd = c.node("vdd");
  c.add<dev::VoltageSource>("Vdd", vdd, spice::kGround, config.termination.vdd);

  // Shared SL driver: plain pulse for the full width (per-bit stop happens at
  // the bit lines, not here).
  spice::PulseSpec sl_spec;
  sl_spec.v2 = config.v_rst;
  sl_spec.rise = 10e-9;
  sl_spec.fall = 10e-9;
  sl_spec.width = config.pulse_width;
  const int sl_drv = c.node("sl_drv");
  c.add<dev::VoltageSource>("Vsl", sl_drv, spice::kGround,
                            std::make_shared<spice::PulseWaveform>(sl_spec));
  const int sl_after_rdrv = c.node("sl_rdrv");
  c.add<dev::Resistor>("Rsl_drv", sl_drv, sl_after_rdrv, config.r_driver);
  node_sl_ = build_rc_line(c, "sl", sl_after_rdrv, config.sl);

  const int wl = c.node("wl");
  c.add<dev::VoltageSource>("Vwl", wl, spice::kGround, config.v_wl);

  for (std::size_t b = 0; b < config.irefs.size(); ++b) {
    const std::string id = std::to_string(b);
    const double gap =
        config.initial_gaps.empty() ? config.cell.g_min : config.initial_gaps[b];

    const int be = c.node("be" + id);
    c.add<dev::Mosfet>("Macc" + id, node_sl_, wl, be, spice::kGround, config.access);
    const int bl_cell = c.node("bl_cell" + id);
    cells_.push_back(
        &c.add<oxram::OxramDevice>("cell" + id, bl_cell, be, config.cell, gap));

    // BL ladder, then the per-bit stop pass gate into the termination input.
    const int bl_far = build_rc_line(c, "bl" + id, bl_cell, config.bl);
    const int term_in = c.node("term_in" + id);
    const int gate_ctrl = c.node("gctl" + id);
    // Pass gate: conducting while its control is high; the stop event ramps
    // the control low, isolating this bit line (cell current -> 0).
    spice::PulseSpec ctrl_spec;
    ctrl_spec.v1 = config.termination.vdd;  // held high...
    ctrl_spec.v2 = config.termination.vdd;
    ctrl_spec.rise = 1e-9;
    ctrl_spec.fall = 5e-9;  // ...until stop() ramps it to v1? (see StoppablePulse)
    ctrl_spec.width = 1.0;  // effectively DC-high until commanded
    // StoppablePulse ramps to v1 on stop; we want high -> low, so model the
    // control as v1 = 0 with an immediate rise to vdd and a commanded fall.
    ctrl_spec.v1 = 0.0;
    ctrl_spec.delay = 0.0;
    auto ctrl = std::make_shared<spice::StoppablePulse>(ctrl_spec);
    gate_controls_.push_back(ctrl);
    c.add<dev::VoltageSource>("Vgctl" + id, gate_ctrl, spice::kGround, ctrl);
    dev::VSwitch::Params sw;
    sw.threshold = 0.5 * config.termination.vdd;
    sw.transition = 0.1;
    sw.r_on = 50.0;
    sw.r_off = 1e9;
    c.add<dev::VSwitch>("Sstop" + id, bl_far, term_in, gate_ctrl, spice::kGround, sw);
    // Program inhibit: once the pass gate opens, the bit line must neither
    // float (its ~1 pF of stored charge would fire a SET pulse into the cell
    // when the shared SL falls) nor be grounded (that is the standard-RST
    // configuration and would keep RESETTING the cell). The finished bit
    // line is instead tied to the *source line* through an active-low clamp:
    // the cell voltage collapses to ~0 and tracks the SL through its fall —
    // the same inhibit idea NAND program-inhibit uses.
    dev::VSwitch::Params clamp;
    clamp.threshold = 0.5 * config.termination.vdd;
    clamp.transition = 0.1;
    clamp.r_on = 500.0;
    clamp.r_off = 1e9;
    clamp.active_low = true;
    c.add<dev::VSwitch>("Sinhibit" + id, bl_far, node_sl_, gate_ctrl,
                        spice::kGround, clamp);

    terminations_.push_back(build_termination_circuit(c, "term" + id, term_in, vdd,
                                                      config.irefs[b],
                                                      config.termination));
  }
  c.finalize();
}

WordPathResult WordPath::run() {
  spice::MnaSystem system(circuit_);
  const std::size_t n = config_.irefs.size();

  std::vector<spice::Probe> probes;
  for (std::size_t b = 0; b < n; ++b) {
    oxram::OxramDevice* cell = cells_[b];
    probes.push_back({"icell" + std::to_string(b),
                      [cell](double, std::span<const double> x) {
                        return -cell->current(x);
                      }});
    const int out = terminations_[b].out;
    probes.push_back({"vout" + std::to_string(b),
                      [out](double, std::span<const double> x) {
                        return out < 0 ? 0.0 : x[static_cast<std::size_t>(out)];
                      }});
  }

  std::vector<spice::TransientEvent> events;
  for (std::size_t b = 0; b < n; ++b) {
    spice::TransientEvent ev;
    ev.name = "stop" + std::to_string(b);
    const int out = terminations_[b].out;
    ev.value = [out](double, std::span<const double> x) {
      return out < 0 ? 0.0 : x[static_cast<std::size_t>(out)];
    };
    ev.threshold = 0.5 * config_.termination.vdd;
    ev.direction = spice::EventDirection::kFalling;
    ev.resolution = 2e-9;
    auto ctrl = gate_controls_[b];
    const double delay = config_.logic_delay;
    ev.on_fire = [ctrl, delay](double t, std::span<const double>) {
      ctrl->stop(t + delay);
    };
    events.push_back(std::move(ev));
  }

  spice::TransientOptions options;
  options.t_stop = config_.t_stop;
  options.dt_max = 20e-9;
  options.newton.max_iterations = 200;

  WordPathResult result;
  result.transient = spice::run_transient(system, options, probes, std::move(events));

  result.bits.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    result.bits[b].final_gap = cells_[b]->gap();
    result.bits[b].final_resistance = cells_[b]->resistance(0.3);
  }
  for (const auto& fired : result.transient.fired_events) {
    const std::size_t b = util::parse_unsigned(fired.name.substr(4)).value();
    result.bits[b].terminated = true;
    result.bits[b].t_terminate = fired.time;
    result.word_latency = std::max(result.word_latency, fired.time);
  }
  return result;
}

}  // namespace oxmlc::array
