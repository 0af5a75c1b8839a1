// DC operating point, with gmin and source-stepping homotopies.
//
// The homotopies are fixed (dc.cpp): gmin stepping starts at kGminStart
// (1e-3 S) and divides by kGminRatio (10) down to kGmin (device.hpp); source
// stepping ramps every source in kSourceSteps (20) equal steps.
#pragma once

#include <vector>

#include "numeric/newton.hpp"
#include "spice/mna.hpp"

namespace oxmlc::spice {

struct DcOptions {
  num::NewtonOptions newton;
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

// Solves for the DC operating point, Newton starting from all zeros.
DcResult solve_dc(MnaSystem& system, const DcOptions& options = {});

}  // namespace oxmlc::spice
