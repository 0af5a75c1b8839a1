#include "array/write_path.hpp"

#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "util/error.hpp"

namespace oxmlc::array {

WritePath::WritePath(const WritePathConfig& config) : config_(config) {
  auto& c = circuit_;
  const int vdd = c.node("vdd");
  c.add<dev::VoltageSource>("Vdd", vdd, spice::kGround, config.termination.vdd);

  // --- SL driver: stoppable RST pulse behind the driver resistance ---
  spice::PulseSpec spec;
  spec.v1 = 0.0;
  spec.v2 = config.v_rst;
  spec.delay = 0.0;
  spec.rise = config.pulse_rise;
  spec.width = config.pulse_width;
  spec.fall = config.pulse_fall;
  sl_pulse_ = std::make_shared<spice::StoppablePulse>(spec);
  const int sl_drv = c.node("sl_drv");
  sl_driver_ = &c.add<dev::VoltageSource>("Vsl", sl_drv, spice::kGround, sl_pulse_);
  const int sl_after_rdrv = c.node("sl_rdrv");
  c.add<dev::Resistor>("Rsl_drv", sl_drv, sl_after_rdrv, config.r_driver);
  node_sl_ = build_rc_line(c, "sl", sl_after_rdrv, config.sl);

  // --- WL driver: DC high during the whole operation, through its ladder ---
  const int wl_drv = c.node("wl_drv");
  c.add<dev::VoltageSource>("Vwl", wl_drv, spice::kGround, config.v_wl);
  node_wl_ = build_rc_line(c, "wl", wl_drv, config.wl);

  // --- 1T-1R: access NMOS between SL and BE, cell between BE and TE/BL ---
  node_be_ = c.node("be");
  access_ = &c.add<dev::Mosfet>("Maccess", node_sl_, node_wl_, node_be_, spice::kGround,
                                config.access);
  node_bl_cell_ = c.node("bl_cell");
  // Terminals: TE (bit-line side) first. During RST, V(TE) < V(BE).
  cell_ = &c.add<oxram::OxramDevice>("cell", node_bl_cell_, node_be_, config.cell,
                                     config.initial_gap);
  cell_->set_rate_factor(config.c2c_rate_factor);

  // --- BL ladder (1 pF paper loading) into the termination circuit ---
  node_bl_far_ = build_rc_line(c, "bl", node_bl_cell_, config.bl);

  if (config.iref) {
    termination_ = build_termination_circuit(c, "term", node_bl_far_, vdd, *config.iref,
                                             config.termination);
  } else {
    // Standard RST: the BL driver grounds the bit line.
    c.add<dev::Resistor>("Rbl_gnd", node_bl_far_, spice::kGround, 10.0);
  }

  c.finalize();
}

void WritePath::apply_mismatch(const MismatchModel& model, Rng& rng) {
  if (config_.iref) termination_.apply_mismatch(model, rng);
  access_->apply_mismatch(rng.normal(0.0, model.sigma_vth(config_.access)),
                          rng.normal(0.0, model.sigma_beta_rel(config_.access)));
}

WritePathResult WritePath::run() {
  spice::MnaSystem system(circuit_);

  std::vector<spice::Probe> probes;
  probes.push_back({"icell", [this](double, std::span<const double> x) {
                      // RST current flows BE -> TE; report its magnitude.
                      return -cell_->current(x);
                    }});
  probes.push_back({"vcell", [this](double, std::span<const double> x) {
                      auto volt = [&](int n) {
                        return n < 0 ? 0.0 : x[static_cast<std::size_t>(n)];
                      };
                      return volt(node_be_) - volt(node_bl_cell_);
                    }});
  probes.push_back({"vbl", [this](double, std::span<const double> x) {
                      return node_bl_far_ < 0 ? 0.0
                                              : x[static_cast<std::size_t>(node_bl_far_)];
                    }});
  const int out_node = config_.iref ? termination_.out : spice::kGround;
  probes.push_back({"vout", [out_node](double, std::span<const double> x) {
                      return out_node < 0 ? 0.0 : x[static_cast<std::size_t>(out_node)];
                    }});
  const int a_node = config_.iref ? termination_.node_a : spice::kGround;
  probes.push_back({"va", [a_node](double, std::span<const double> x) {
                      return a_node < 0 ? 0.0 : x[static_cast<std::size_t>(a_node)];
                    }});
  probes.push_back({"gap", [this](double, std::span<const double>) {
                      return cell_->gap();
                    }});
  probes.push_back({"vsl", [this](double t, std::span<const double>) {
                      return sl_pulse_->value(t);
                    }});

  std::vector<spice::TransientEvent> events;
  WritePathResult result;
  if (config_.iref) {
    spice::TransientEvent ev;
    ev.name = "termination";
    const double vdd = config_.termination.vdd;
    ev.value = [out_node](double, std::span<const double> x) {
      return out_node < 0 ? 0.0 : x[static_cast<std::size_t>(out_node)];
    };
    ev.threshold = 0.5 * vdd;
    ev.direction = spice::EventDirection::kFalling;
    ev.resolution = 2e-9;
    const double logic_delay = config_.logic_delay;
    auto pulse = sl_pulse_;
    ev.on_fire = [pulse, logic_delay](double t, std::span<const double>) {
      pulse->stop(t + logic_delay);
    };
    events.push_back(std::move(ev));
  }

  spice::TransientOptions options;
  options.t_stop = config_.t_stop;
  options.dt_max = 20e-9;
  options.newton.max_iterations = 200;

  result.transient = spice::run_transient(system, options, probes, std::move(events));

  for (const auto& fired : result.transient.fired_events) {
    if (fired.name == "termination") {
      result.terminated = true;
      result.t_terminate = fired.time;
    }
  }
  result.final_gap = cell_->gap();
  result.final_resistance = cell_->resistance(0.3);

  // SL-source energy: integral of V_sl_driver * I_driver. The driver current
  // is the branch current of Vsl (positive out of its + terminal).
  const auto& times = result.transient.times;
  const auto& vsl = result.transient.probe_values[WritePathResult::kProbeVsl];
  // Recompute driver current from Icell as the dominant path (the WL draws no
  // DC current); this matches the fast path's energy definition.
  const auto& icell = result.transient.probe_values[WritePathResult::kProbeIcell];
  std::vector<double> power(times.size());
  for (std::size_t k = 0; k < times.size(); ++k) power[k] = vsl[k] * icell[k];
  result.energy_source = spice::TransientResult::integrate(times, power);
  return result;
}

}  // namespace oxmlc::array
