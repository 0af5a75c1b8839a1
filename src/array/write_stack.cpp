#include "array/write_stack.hpp"

#include <utility>

#include "devices/passive.hpp"
#include "devices/sources.hpp"

namespace oxmlc::array {

void record_final_state(ColumnResult& column, const oxram::OxramDevice& cell) {
  column.final_gap = cell.gap();
  column.final_resistance = cell.resistance(oxram::kReadVoltage);
}

SlDriver build_sl_driver(spice::Circuit& circuit, double width, double r_driver) {
  spice::PulseSpec spec;
  spec.v2 = oxram::kResetSlVoltage;
  spec.rise = oxram::kResetEdge;
  spec.width = width;
  spec.fall = oxram::kResetEdge;
  SlDriver driver;
  driver.pulse = std::make_shared<spice::StoppablePulse>(spec);
  driver.source = circuit.node("sl_drv");
  circuit.add<dev::VoltageSource>("Vsl", driver.source, spice::kGround, driver.pulse);
  driver.out = circuit.node("sl_rdrv");
  circuit.add<dev::Resistor>("Rsl_drv", driver.source, driver.out, r_driver);
  return driver;
}

CellColumn build_cell_column(spice::Circuit& circuit, const std::string& id, int sl,
                             int wl, const oxram::OxramParams& cell, double gap,
                             const LineParasitics& bl) {
  CellColumn column;
  column.be = circuit.node("be" + id);
  column.access = &circuit.add<dev::Mosfet>("Macc" + id, sl, wl, column.be,
                                            spice::kGround, oxram::access_nmos());
  column.te = circuit.node("te" + id);
  column.cell =
      &circuit.add<oxram::OxramDevice>("cell" + id, column.te, column.be, cell, gap);
  column.bl_end = build_rc_line(circuit, "bl" + id, column.te, bl).back();
  return column;
}

std::shared_ptr<spice::StoppablePulse> build_stop_gate(spice::Circuit& circuit,
                                                       const std::string& name, int node,
                                                       double v_high, double t_stop) {
  spice::PulseSpec spec;
  spec.v2 = v_high;
  spec.rise = 1e-9;
  spec.width = t_stop;
  spec.fall = 5e-9;
  auto gate = std::make_shared<spice::StoppablePulse>(spec);
  circuit.add<dev::VoltageSource>("V" + name, node, spice::kGround, gate);
  return gate;
}

spice::TransientEvent comparator_stop_event(const std::string& name,
                                            const TerminationCircuit& termination,
                                            std::shared_ptr<spice::StoppablePulse> target,
                                            ColumnResult& column) {
  spice::TransientEvent event;
  event.name = name;
  const auto out = static_cast<std::size_t>(termination.out);
  event.value = [out](double, std::span<const double> x) { return x[out]; };
  event.threshold = 0.5 * dev::tech130hv::kVdd;
  event.direction = spice::EventDirection::kFalling;
  event.resolution = 2e-9;
  event.on_fire = [target = std::move(target), &column](double t,
                                                        std::span<const double>) {
    target->stop(t + kLogicDelay);
    column.terminated = true;
    column.t_terminate = t;
  };
  return event;
}

spice::TransientOptions write_transient_options(double t_stop) {
  spice::TransientOptions options;
  options.t_stop = t_stop;
  options.dt_max = 20e-9;
  options.newton.max_iterations = 200;
  return options;
}

spice::Probe cell_current_probe(std::string name, const oxram::OxramDevice& cell) {
  return {std::move(name),
          [&cell](double, std::span<const double> x) { return -cell.current(x); }};
}

double sl_source_energy(const spice::TransientResult& transient, std::size_t vsl_probe,
                        const std::vector<std::size_t>& icell_probes) {
  const std::vector<double>& vsl = transient.probe_values[vsl_probe];
  std::vector<double> power(transient.times.size(), 0.0);
  for (const std::size_t probe : icell_probes) {
    const std::vector<double>& icell = transient.probe_values[probe];
    for (std::size_t k = 0; k < power.size(); ++k) power[k] += vsl[k] * icell[k];
  }
  return spice::TransientResult::integrate(transient.times, power);
}

}  // namespace oxmlc::array
