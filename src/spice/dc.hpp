// DC operating point, with gmin and source-stepping homotopies.
#pragma once

#include <vector>

#include "numeric/newton.hpp"
#include "spice/mna.hpp"

namespace oxmlc::spice {

struct DcOptions {
  num::NewtonOptions newton;
  double gmin = 1e-12;
  // gmin stepping ladder: start at gmin_start and divide by gmin_ratio until
  // reaching `gmin`. Applied only when the direct solve fails.
  double gmin_start = 1e-3;
  double gmin_ratio = 10.0;
  // Source stepping: number of homotopy points from 0 to full bias. Applied
  // only when gmin stepping also fails.
  std::size_t source_steps = 20;
  // Run the circuit static analyzer (spice/analyze) before the first Newton
  // solve: error-severity findings (V-loops, current cutsets, structural
  // singularity) throw InvalidArgumentError with named nodes/devices instead
  // of surfacing as a singular LU mid-iteration. Warnings are logged.
  bool precheck = true;
};

struct DcResult {
  bool converged = false;
  std::vector<double> solution;     // final unknown vector
  std::size_t newton_iterations = 0;
  std::string strategy;             // "direct", "gmin-stepping", "source-stepping"
};

// Solves for the DC operating point. `initial_guess` (optional) seeds Newton;
// pass a nearby solution for fast continuation.
DcResult solve_dc(MnaSystem& system, const DcOptions& options = {},
                  const std::vector<double>* initial_guess = nullptr);

}  // namespace oxmlc::spice
