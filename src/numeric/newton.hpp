// Damped Newton–Raphson for nonlinear systems F(x) = 0 with sparse Jacobians.
//
// The MNA engine implements `NonlinearSystem` by stamping linearized device
// models; Newton owns the iteration policy (damping, step limiting,
// convergence norms) so that DC and transient analyses share one solver.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "numeric/sparse_lu.hpp"

namespace oxmlc::num {

// Client interface: given the current iterate x, fill the residual F(x) and,
// unless `jacobian` is null, the Jacobian J(x). A null Jacobian asks for the
// residual only, and that residual must be bit-identical to the one a full
// assembly writes. The matrix passed in is already sized and cleared.
class NonlinearSystem {
 public:
  virtual ~NonlinearSystem() = default;

  virtual std::size_t dimension() const = 0;

  virtual void assemble(std::span<const double> x, TripletMatrix* jacobian,
                        std::span<double> residual) = 0;

  // Optional per-component clamp on the Newton update, applied before damping.
  // Circuit use: limit node-voltage moves to ~1 V per iteration so exponential
  // device models do not overflow. Default: no limiting.
  virtual double max_step(std::size_t component) const {
    (void)component;
    return 0.0;  // 0 = unlimited
  }
};

// The convergence test and the damping are fixed: kRelTol 1e-6 and kAbsTol
// 1e-9 weight the update norm, kResidualTol 1e-9 A bounds the residual, and
// the line search halves a step at most kMaxDampingHalvings (4) times (all
// in newton.cpp). Only the iteration budget varies between callers.
struct NewtonOptions {
  std::size_t max_iterations = 100;
};

struct NewtonResult {
  bool converged = false;
  std::size_t iterations = 0;
  double final_residual_norm = 0.0;
  double final_update_norm = 0.0;  // weighted RMS of last dx
};

// Caller-owned scratch for solve_newton. A workspace amortizes the Jacobian
// triplet buffer, the iteration vectors, and — through
// LinearSolver::factorize_cached — the CSR assembly pattern and LU symbolic
// analysis across every Newton solve that reuses it. Reuse is what makes the
// two-phase LU pay off: a transient run passes the same workspace to every
// timestep, so each iteration after the first is a numeric-only refactorize.
// Not thread-safe; use one workspace per thread.
struct NewtonWorkspace {
  TripletMatrix jacobian;
  std::vector<double> residual;
  std::vector<double> dx;
  std::vector<double> x_trial;
  LinearSolver solver;
};

// Iterates x_{k+1} = x_k + s * dx, J dx = -F, until both the weighted update
// norm and the residual infinity-norm are under tolerance. Each iteration
// stamps one Jacobian, at the iterate it factors; the line-search trials that
// choose s evaluate the residual only. So the returned iterate is never
// stamped, and a solve that does not throw counts newton.assemblies ==
// newton.factorizations and newton.residual_evaluations ==
// newton.factorizations + newton.damping_halvings.
// `x` carries the initial guess in and the solution out; `workspace` holds
// the reused buffers and the cached factorization pattern.
NewtonResult solve_newton(NonlinearSystem& system, std::span<double> x,
                          const NewtonOptions& options, NewtonWorkspace& workspace);

}  // namespace oxmlc::num
