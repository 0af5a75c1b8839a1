// The reference pulse stepper: the serial one-cell programming loop, kept as
// the oracle the batch engine is held to.
//
// oxram::CellBatch is the only production code that steps a programming
// pulse; FastCell::apply_{set,reset} run a one-lane batch. This file
// keeps an independent serial stepper to hold it to: the same waveform,
// termination interpolation, step-size policy and gap integrator, but with
// the stack solved from scratch by bisection (solve_stack) at every time step
// instead of the batch engine's warm-started Newton. Both solvers converge to
// the shared kStackSolveRelTol, so the two agree to ~1e-9 relative on every
// observable (pinned by the batch equivalence and property suites).
//
// Only tests and bench_batch_throughput call it, and it is the only code that
// records a per-step trajectory.
#pragma once

#include <vector>

#include "oxram/fast_cell.hpp"

namespace oxmlc::oxram {

struct TrajectoryPoint {
  double t = 0.0;
  double current = 0.0;
  double v_cell = 0.0;
  double gap = 0.0;
};

// Steps `op` on `cell` to completion and writes the final gap and virgin
// flag back, exactly as FastCell::apply_* does. When `trajectory` is
// non-null, one point per time step is appended to it.
OperationResult reference_pulse(FastCell& cell, const ResetOperation& op,
                                std::vector<TrajectoryPoint>* trajectory = nullptr);
OperationResult reference_pulse(FastCell& cell, const SetOperation& op,
                                std::vector<TrajectoryPoint>* trajectory = nullptr);

}  // namespace oxmlc::oxram
