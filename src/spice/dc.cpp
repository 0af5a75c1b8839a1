#include "spice/dc.hpp"

#include <cmath>

#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace oxmlc::spice {
namespace {

// gmin stepping ladder: start at kGminStart and divide by kGminRatio until
// reaching kGmin. Applied only when the direct solve fails.
constexpr double kGminStart = 1e-3;
constexpr double kGminRatio = 10.0;
// Source stepping: number of homotopy points from 0 to full bias. Applied only
// when gmin stepping also fails.
constexpr std::size_t kSourceSteps = 20;

num::NewtonResult attempt(MnaSystem& system, std::vector<double>& x,
                          const num::NewtonOptions& newton) {
  try {
    return num::solve_newton(system, x, newton, system.workspace());
  } catch (const num::SingularMatrixError& error) {
    // Translate the bare pivot column into circuit vocabulary before the
    // exception escapes to callers that never saw the matrix.
    system.rethrow_singular(error, "dc");
  }
}

struct DcMetrics {
  obs::Counter& solves = obs::registry().counter("dc.solves");
  obs::Counter& direct = obs::registry().counter("dc.strategy.direct");
  obs::Counter& gmin_stepping = obs::registry().counter("dc.strategy.gmin_stepping");
  obs::Counter& source_stepping =
      obs::registry().counter("dc.strategy.source_stepping");
  obs::Counter& failures = obs::registry().counter("dc.failures");
  obs::Timer& solve_time = obs::registry().timer("dc.solve_time");

  static DcMetrics& get() {
    static DcMetrics metrics;
    return metrics;
  }
};

}  // namespace

DcResult solve_dc(MnaSystem& system, const DcOptions& options) {
  DcMetrics& metrics = DcMetrics::get();
  metrics.solves.add();
  obs::ScopedTimer solve_timer(metrics.solve_time);

  const std::size_t n = system.dimension();
  DcResult result;
  result.solution.assign(n, 0.0);

  StampContext& ctx = system.context();
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  ctx.source_scale = 1.0;
  ctx.gmin = kGmin;

  // Fail fast on broken topology (cached after the first call, so sweeps and
  // Monte-Carlo repetitions pay the analysis cost once).
  if (options.precheck) system.precheck();

  // Strategy 1: direct solve.
  auto newton_result = attempt(system, result.solution, options.newton);
  result.newton_iterations += newton_result.iterations;
  if (newton_result.converged) {
    result.converged = true;
    result.strategy = "direct";
    metrics.direct.add();
    return result;
  }

  // Strategy 2: gmin stepping — solve a heavily shunted (easy) circuit first,
  // then tighten the shunt geometrically, reusing each solution as the seed.
  {
    std::vector<double> x(n, 0.0);
    bool ladder_ok = true;
    for (double gmin = kGminStart; gmin >= kGmin * 0.999; gmin /= kGminRatio) {
      ctx.gmin = gmin;
      newton_result = attempt(system, x, options.newton);
      result.newton_iterations += newton_result.iterations;
      if (!newton_result.converged) {
        ladder_ok = false;
        break;
      }
      if (gmin / kGminRatio < kGmin && gmin > kGmin) {
        // Final rung: land exactly on the target gmin.
        ctx.gmin = kGmin;
        newton_result = attempt(system, x, options.newton);
        result.newton_iterations += newton_result.iterations;
        ladder_ok = newton_result.converged;
        break;
      }
    }
    ctx.gmin = kGmin;
    if (ladder_ok && newton_result.converged) {
      result.converged = true;
      result.strategy = "gmin-stepping";
      metrics.gmin_stepping.add();
      result.solution = std::move(x);
      return result;
    }
  }

  // Strategy 3: source stepping — ramp all independent sources from zero.
  {
    std::vector<double> x(n, 0.0);
    bool ok = true;
    for (std::size_t step = 1; step <= kSourceSteps; ++step) {
      ctx.source_scale = static_cast<double>(step) / static_cast<double>(kSourceSteps);
      newton_result = attempt(system, x, options.newton);
      result.newton_iterations += newton_result.iterations;
      if (!newton_result.converged) {
        ok = false;
        break;
      }
    }
    ctx.source_scale = 1.0;
    if (ok) {
      result.converged = true;
      result.strategy = "source-stepping";
      metrics.source_stepping.add();
      result.solution = std::move(x);
      return result;
    }
  }

  OXMLC_WARN << "DC operating point failed to converge (residual "
             << newton_result.final_residual_norm << ")";
  result.converged = false;
  result.strategy = "failed";
  metrics.failures.add();
  return result;
}

}  // namespace oxmlc::spice
