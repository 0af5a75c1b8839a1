#include "array/write_path.hpp"

#include "devices/passive.hpp"
#include "devices/sources.hpp"

namespace oxmlc::array {

WritePath::WritePath(const WritePathConfig& config) : config_(config) {
  auto& c = circuit_;
  const int vdd = c.node("vdd");
  c.add<dev::VoltageSource>("Vdd", vdd, spice::kGround, dev::tech130hv::kVdd);

  // --- SL driver behind its ladder; the termination event stops its pulse ---
  const SlDriver sl_driver = build_sl_driver(c, config.pulse_width, config.r_driver);
  sl_pulse_ = sl_driver.pulse;
  const int sl = build_rc_line(c, "sl", sl_driver.out, config.sl).back();

  // --- WL driver: DC high during the whole operation, through its ladder ---
  const int wl_drv = c.node("wl_drv");
  c.add<dev::VoltageSource>("Vwl", wl_drv, spice::kGround, oxram::kResetWlVoltage);
  const int wl = build_rc_line(c, "wl", wl_drv, config.wl).back();

  // --- 1T-1R and the BL ladder (1 pF paper loading) ---
  const oxram::OxramParams cell;
  column_ = build_cell_column(c, "", sl, wl, cell, cell.g_min, config.bl);

  if (config.iref) {
    termination_ =
        build_termination_circuit(c, "term", column_.bl_end, vdd, *config.iref);
  } else {
    // Standard RST: the BL driver grounds the bit line.
    c.add<dev::Resistor>("Rbl_gnd", column_.bl_end, spice::kGround, 10.0);
  }

  c.finalize();
}

void WritePath::apply_mismatch(const MismatchModel& model, Rng& rng) {
  if (config_.iref) termination_.apply_mismatch(model, rng);
  const dev::MosfetParams access = oxram::access_nmos();
  column_.access->apply_mismatch(rng.normal(0.0, model.sigma_vth(access)),
                                 rng.normal(0.0, model.sigma_beta_rel(access)));
}

WritePathResult WritePath::run() {
  spice::MnaSystem system(circuit_);
  const auto volt = [](int n, std::span<const double> x) {
    return n < 0 ? 0.0 : x[static_cast<std::size_t>(n)];
  };
  const CellColumn& col = column_;
  const int out_node = termination_.out;

  std::vector<spice::Probe> probes;
  probes.push_back(cell_current_probe("icell", *col.cell));
  probes.push_back({"vcell", [volt, col](double, std::span<const double> x) {
                      return volt(col.be, x) - volt(col.te, x);
                    }});
  probes.push_back({"vout", [volt, out_node](double, std::span<const double> x) {
                      return volt(out_node, x);
                    }});
  probes.push_back({"gap", [col](double, std::span<const double>) {
                      return col.cell->gap();
                    }});
  probes.push_back({"vsl", [this](double t, std::span<const double>) {
                      return sl_pulse_->value(t);
                    }});

  WritePathResult result;
  std::vector<spice::TransientEvent> events;
  if (config_.iref) {
    events.push_back(comparator_stop_event("stop", termination_, sl_pulse_, result));
  }
  result.transient = spice::run_transient(system, write_transient_options(config_.t_stop),
                                          probes, std::move(events));
  record_final_state(result, *col.cell);
  result.energy_source = sl_source_energy(result.transient, WritePathResult::kProbeVsl,
                                          {WritePathResult::kProbeIcell});
  return result;
}

}  // namespace oxmlc::array
