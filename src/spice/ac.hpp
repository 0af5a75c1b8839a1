// AC (small-signal) analysis.
//
// Linearizes the circuit at its DC operating point — the Newton Jacobian
// `assemble()` produces *is* the exact small-signal conductance matrix G,
// including every nonlinear device's gm/gds/OxRAM conductance — collects the
// reactive matrix B from the devices' charge/flux stamps, and solves
//
//   (G + j*w*B) x = u(ac)
//
// over a logarithmic frequency sweep. Used for comparator/sense-path
// bandwidth analysis and as a general .ac facility of the engine.
#pragma once

#include <complex>
#include <vector>

#include "spice/mna.hpp"
#include "util/units.hpp"

namespace oxmlc::spice {

// The sweep linearizes at the default DC operating point (solve_dc with
// DcOptions{}).
struct AcOptions {
  double f_start = 1e3;
  double f_stop = 1e9;
  std::size_t points_per_decade = 20;
};

struct AcResult {
  bool converged = false;                  // DC OP found and every point solved
  std::vector<double> frequencies;         // Hz
  // solutions[k][unknown]: complex phasor of each unknown at frequencies[k].
  std::vector<std::vector<std::complex<double>>> solutions;
  std::vector<double> dc_operating_point;  // the bias the sweep linearized at

  // Helpers for node `unknown_index` (throws on bad index).
  double magnitude(std::size_t point, int unknown_index) const;
  double magnitude_db(std::size_t point, int unknown_index) const;
  double phase_deg(std::size_t point, int unknown_index) const;

  // Index of the first frequency where |H| drops below |H(0)| / sqrt(2)
  // (-3 dB); returns frequencies.size() when it never does.
  std::size_t corner_index(int unknown_index) const;
};

// Runs the sweep. AC excitations are the sources' `set_ac` phasors.
AcResult run_ac(MnaSystem& system, const AcOptions& options = {});

}  // namespace oxmlc::spice
