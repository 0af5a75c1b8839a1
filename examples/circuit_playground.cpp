// Circuit playground: using the oxmlc SPICE substrate directly as a general
// analog simulator — the library is a full MNA engine (DC, transient, event
// detection), not only an RRAM harness.
//
// Builds a programmable delay element: a CMOS inverter drives a capacitor
// through an OxRAM cell, and a transient *event* timestamps the moment the
// load crosses the logic threshold. The delay is set by the cell's programmed
// resistance — a 4-bit digitally-trimmed analog delay line, and a minimal
// demonstration of how the MOSFET model, the OxRAM device, and the event
// engine compose.
#include <iostream>
#include <memory>
#include <vector>

#include "devices/mosfet.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "mlc/levels.hpp"
#include "oxram/device.hpp"
#include "spice/transient.hpp"
#include "util/table.hpp"

namespace {

using namespace oxmlc;

// Propagation delay from the input step to the load node reaching VDD/2,
// with the cell programmed to gap `cell_gap`.
double propagation_delay(double cell_gap) {
  spice::Circuit c;
  const int vdd = c.node("vdd");
  // Low supply: the delay line must stay below the SET threshold so the
  // signal cannot reprogram the cell (read-disturb-safe operation).
  c.add<dev::VoltageSource>("Vdd", vdd, spice::kGround, 0.9);

  // Input step (falling input -> rising output through the inverter).
  spice::PulseSpec step;
  step.v1 = 0.9;
  step.v2 = 0.0;
  step.delay = 1e-9;
  step.rise = 0.1e-9;
  step.fall = 0.1e-9;
  step.width = 1e-3;
  const int in = c.node("in");
  c.add<dev::VoltageSource>("Vin", in, spice::kGround,
                            std::make_shared<spice::PulseWaveform>(step));

  // Driving inverter.
  const int drv = c.node("drv");
  c.add<dev::Mosfet>("Mp", drv, in, vdd, vdd, dev::tech130hv::pmos(4e-6, 0.5e-6));
  c.add<dev::Mosfet>("Mn", drv, in, spice::kGround, spice::kGround,
                     dev::tech130hv::nmos(2e-6, 0.5e-6));

  // The RRAM-RC delay: cell between driver and load capacitor.
  const int load = c.node("load");
  c.add<oxram::OxramDevice>("Xdelay", drv, load, oxram::OxramParams{}, cell_gap);
  c.add<dev::Capacitor>("Cload", load, spice::kGround, 100e-15);

  spice::MnaSystem system(c);
  spice::TransientOptions options;
  options.t_stop = 200e-9;
  options.dt_max = 0.2e-9;

  double crossing_time = -1.0;
  std::vector<spice::TransientEvent> events(1);
  events[0].name = "threshold";
  events[0].value = [load](double, std::span<const double> x) {
    return x[static_cast<std::size_t>(load)];
  };
  events[0].threshold = 0.45;
  events[0].direction = spice::EventDirection::kRising;
  events[0].resolution = 0.05e-9;
  events[0].on_fire = [&crossing_time](double t, std::span<const double>) {
    crossing_time = t;
  };

  spice::run_transient(system, options, {}, std::move(events));
  return crossing_time < 0.0 ? -1.0 : crossing_time - 1e-9;  // minus input delay
}

}  // namespace

int main() {
  using namespace oxmlc;

  std::cout << "RRAM-programmable delay element (oxmlc SPICE substrate)\n\n";
  const oxram::OxramParams params;

  Table t({"programmed state", "R at 0.3 V", "propagation delay"});
  struct Case {
    std::string name;
    double r_target;
  };
  std::vector<Case> cases = {{"LRS (formed)", 12.7e3}};
  // Ascending resistance: every 5th QLC level from shallow to deep.
  const auto& table = mlc::paper_table2();
  for (auto it = table.rbegin(); it != table.rend(); ++it) {
    if (it->value % 5 == 0) {
      cases.push_back({"QLC level " + std::to_string(it->value), it->r_hrs});
    }
  }

  double previous_delay = 0.0;
  bool monotone = true;
  for (const auto& cs : cases) {
    const double gap = oxram::gap_for_resistance(params, 0.3, cs.r_target);
    const double delay = propagation_delay(gap);
    monotone = monotone && delay > previous_delay;
    previous_delay = delay;
    t.add_row({cs.name, format_si(oxram::resistance_at(params, 0.3, gap), "Ohm", 3),
               delay > 0.0 ? format_si(delay, "s", 3) : "> simulation window"});
  }
  t.print(std::cout);

  std::cout << "\ndelay monotone in programmed resistance: " << std::boolalpha << monotone
            << "\nEach QLC state selects a distinct delay — 16 trim codes from\n"
               "one cell, written with a single terminated RESET each. The\n"
               "crossing times above were captured by the transient engine's\n"
               "event detector (the same machinery that implements the write\n"
               "termination stop pulse).\n";
  return monotone ? 0 : 1;
}
