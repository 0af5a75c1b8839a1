// Extension: AC analysis of the write-termination comparator path.
//
// The behavioral termination model charges a fixed 2 ns comparator delay;
// this bench justifies that number from the circuit itself: it linearizes the
// Fig. 7a termination circuit at a bias just above the decision point and
// measures the small-signal bandwidth from the bit-line current to the
// comparator output — the pole that sets how fast `out` can follow the
// decaying cell current.
#include <cmath>
#include <iostream>

#include "array/termination.hpp"
#include "bench_common.hpp"
#include "devices/sources.hpp"
#include "spice/ac.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

namespace {

int run() {
  using namespace oxmlc;

  bench::print_header(
      "Extension: comparator AC", "termination-circuit small-signal bandwidth",
      "(design-assumption check: the fast path charges a 2 ns comparator + "
      "logic delay; the circuit's pole must support it)");

  Table t({"IrefR (uA)", "bias Icell", "node-A pole (-3 dB)", "out pole (-3 dB)",
           "implied delay ~1/(2 pi f)"});
  Series bode{{"|out / i_bl| (dB-ish)", '*'}, {}, {}};

  for (double iref_ua : {6.0, 16.0, 36.0}) {
    spice::Circuit c;
    const int vdd = c.node("vdd");
    const int bl = c.node("bl");
    c.add<dev::VoltageSource>("Vdd", vdd, spice::kGround, 3.3);
    // Bias the copy mirror 10 % above the decision point, then wiggle.
    auto& icell = c.add<dev::CurrentSource>("Icell", vdd, bl, iref_ua * 1e-6 * 1.1);
    icell.set_ac(1.0);  // unit AC current: outputs read as transimpedance
    const array::TerminationCircuit tc =
        array::build_termination_circuit(c, "t", bl, vdd, iref_ua * 1e-6);

    spice::MnaSystem system(c);
    spice::AcOptions options;
    options.f_start = 1e4;
    options.f_stop = 1e10;
    options.points_per_decade = 20;
    const spice::AcResult result = spice::run_ac(system, options);
    if (!result.converged) {
      std::cout << "  (operating point failed at " << iref_ua << " uA)\n";
      continue;
    }

    const std::size_t a_corner = result.corner_index(tc.node_a);
    const std::size_t out_corner = result.corner_index(tc.out);
    const double f_a = a_corner < result.frequencies.size()
                           ? result.frequencies[a_corner]
                           : result.frequencies.back();
    const double f_out = out_corner < result.frequencies.size()
                             ? result.frequencies[out_corner]
                             : result.frequencies.back();
    t.add_row({format_scaled(iref_ua, 1.0, 0),
               format_scaled(iref_ua * 1.1, 1.0, 1) + " uA",
               format_si(f_a, "Hz", 3), format_si(f_out, "Hz", 3),
               format_si(1.0 / (2.0 * phys::kPi * f_out), "s", 3)});

    if (iref_ua == 16.0) {
      for (std::size_t k = 0; k < result.frequencies.size(); ++k) {
        bode.x.push_back(result.frequencies[k]);
        bode.y.push_back(std::max(result.magnitude(k, tc.out), 1e-3));
      }
    }
  }
  t.print(std::cout);

  PlotOptions options;
  options.title = "comparator-output transimpedance vs frequency (16 uA bias)";
  options.x_label = "f (Hz)";
  options.y_label = "|V(out)/I(bl)| (Ohm)";
  options.x_scale = AxisScale::kLog10;
  options.y_scale = AxisScale::kLog10;
  plot_series(std::cout, std::vector<Series>{bode}, options);

  std::cout << "\n  reading: the decision path's pole sits in the hundreds of MHz\n"
               "  (nanosecond-scale response), comfortably faster than the 2 ns\n"
               "  delay the behavioral model charges and orders of magnitude\n"
               "  faster than the us-scale current decay it must track.\n";
  bench::save_csv(t, "ext_comparator_ac.csv");
  return 0;
}

}  // namespace

int main() { return oxmlc::bench::guard(run); }
