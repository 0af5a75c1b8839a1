#include "numeric/newton.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/vec.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace oxmlc::num {
namespace {

// Converged when the update norm, weighted per component by
// kRelTol * |x_i| + kAbsTol (volts/amperes), is at most 1 and the residual
// inf-norm is at most kResidualTol (amperes on KCL rows).
constexpr double kRelTol = 1e-6;
constexpr double kAbsTol = 1e-9;
constexpr double kResidualTol = 1e-9;
// Damping: when the full step does not reduce the residual norm, halve up to
// this many times before accepting the best candidate anyway.
constexpr std::size_t kMaxDampingHalvings = 4;

// Hot-path telemetry: references resolved once, then wait-free atomic adds.
struct NewtonMetrics {
  obs::Counter& solves = obs::registry().counter("newton.solves");
  obs::Counter& iterations = obs::registry().counter("newton.iterations");
  obs::Counter& factorizations = obs::registry().counter("newton.factorizations");
  // Jacobian stamps; the line-search trials count as residual evaluations.
  obs::Counter& assemblies = obs::registry().counter("newton.assemblies");
  obs::Counter& residual_evaluations =
      obs::registry().counter("newton.residual_evaluations");
  obs::Counter& damping_halvings = obs::registry().counter("newton.damping_halvings");
  obs::Counter& failures = obs::registry().counter("newton.convergence_failures");
  obs::Counter& refactorizations = obs::registry().counter("newton.refactorizations");
  obs::Timer& solve_time = obs::registry().timer("newton.solve_time");

  static NewtonMetrics& get() {
    static NewtonMetrics metrics;
    return metrics;
  }
};

}  // namespace

NewtonResult solve_newton(NonlinearSystem& system, std::span<double> x,
                          const NewtonOptions& options, NewtonWorkspace& workspace) {
  const std::size_t n = system.dimension();
  OXMLC_CHECK(x.size() == n, "solve_newton: initial guess has wrong dimension");

  NewtonMetrics& metrics = NewtonMetrics::get();
  metrics.solves.add();
  obs::ScopedTimer solve_timer(metrics.solve_time);

  // Size the workspace for this system; assign() keeps capacity on reuse, so
  // a warm workspace does not allocate.
  TripletMatrix& jacobian = workspace.jacobian;
  jacobian.resize(n);
  std::vector<double>& residual = workspace.residual;
  std::vector<double>& dx = workspace.dx;
  std::vector<double>& x_trial = workspace.x_trial;
  residual.assign(n, 0.0);
  dx.assign(n, 0.0);
  x_trial.assign(n, 0.0);
  LinearSolver& solver = workspace.solver;

  NewtonResult result;

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    metrics.iterations.add();

    // The iteration's one Jacobian, stamped at the iterate it linearizes.
    // The residual stamped with it is F(x) again: after the first iteration,
    // bit for bit the accepted trial's.
    jacobian.clear();
    system.assemble(x, &jacobian, residual);
    metrics.assemblies.add();
    const double residual_norm = norm_inf(residual);

    solver.factorize_cached(jacobian);
    metrics.factorizations.add();
    if (solver.last_refactorized()) metrics.refactorizations.add();
    // Solve J dx = -F.
    for (std::size_t i = 0; i < n; ++i) residual[i] = -residual[i];
    solver.solve(residual, dx);

    // Per-component step limiting (e.g. clamp node voltage moves).
    for (std::size_t i = 0; i < n; ++i) {
      const double limit = system.max_step(i);
      if (limit > 0.0) dx[i] = std::clamp(dx[i], -limit, limit);
    }

    // Damped line search on the residual norm. A trial needs F only, so it
    // stamps no Jacobian, and it may overwrite `residual`: the solve above
    // has used F(x), and the next iteration's stamp writes it again.
    double scale = 1.0;
    double best_scale = 1.0;
    double best_norm = std::numeric_limits<double>::infinity();
    for (std::size_t halving = 0; halving <= kMaxDampingHalvings; ++halving) {
      if (halving > 0) metrics.damping_halvings.add();
      for (std::size_t i = 0; i < n; ++i) x_trial[i] = x[i] + scale * dx[i];
      system.assemble(x_trial, nullptr, residual);
      metrics.residual_evaluations.add();
      const double trial_norm = norm_inf(residual);
      if (trial_norm < best_norm) {
        best_norm = trial_norm;
        best_scale = scale;
      }
      // Accept as soon as the residual decreases (standard Armijo-ish rule).
      if (trial_norm <= residual_norm || trial_norm <= kResidualTol) break;
      scale *= 0.5;
    }

    // Step to the best damping found (the loop may have overshot it).
    result.final_update_norm =
        weighted_rms(dx, x, kRelTol, kAbsTol) * best_scale;
    axpy(best_scale, dx, x);
    result.final_residual_norm = best_norm;

    if (result.final_update_norm <= 1.0 && best_norm <= kResidualTol) {
      result.converged = true;
      return result;
    }
  }

  metrics.failures.add();
  OXMLC_DEBUG << "Newton failed to converge: residual=" << result.final_residual_norm
              << " after " << result.iterations << " iterations";
  return result;
}

}  // namespace oxmlc::num
