#include "oxram/fast_cell.hpp"

#include <algorithm>
#include <cmath>

#include "oxram/batch_kernel.hpp"
#include "oxram/stack_solver.hpp"
#include "util/error.hpp"

namespace oxmlc::oxram {
namespace {

// Assembles the operating point once the solved current is known.
StackOperatingPoint operating_point_at(const detail::StackProblem& problem, double i,
                                       double v_cell, double v_sink) {
  StackOperatingPoint op;
  op.current = i;
  op.v_cell = v_cell;
  op.v_sink = v_sink;
  if (problem.reset_polarity) {
    op.v_access = std::max(
        0.0, (problem.v_drive - i * problem.stack.r_series) - (op.v_sink + op.v_cell));
  } else {
    op.v_access = std::max(0.0, problem.v_drive - i * problem.stack.r_series - op.v_cell);
  }
  return op;
}

// Interval convergence test shared by both solvers (see fast_cell.hpp).
bool bracket_converged(double lo, double hi) {
  return hi - lo <= std::max(kStackSolveRelTol * hi, kStackSolveAbsTol);
}

}  // namespace

StackOperatingPoint solve_stack(const OxramParams& cell, double g, const StackConfig& stack,
                                Polarity polarity, double v_drive, double v_wl) {
  StackOperatingPoint op;
  if (v_drive <= 0.0) return op;

  const detail::StackProblem problem{
      cell,          stack, g, v_drive, v_wl, polarity == Polarity::kReset,
      stack.bl_through_mirror && polarity == Polarity::kReset};

  double lo = 0.0, hi = detail::kStackCurrentMax;
  if (problem.residual(lo) <= 0.0) return op;  // stack cannot conduct
  OXMLC_CHECK(problem.residual(hi) < 0.0, "solve_stack: upper current bracket too small");
  // Bisection on the monotone residual, stopping early once the interval is
  // resolved to the shared tolerance; the iteration cap reproduces the
  // historical 52 halvings (sub-pA from a 10 mA bracket) when the relative
  // criterion cannot engage.
  for (int iter = 0; iter < kStackSolveMaxIter && !bracket_converged(lo, hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (problem.residual(mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double i = 0.5 * (lo + hi);
  const double v_cell = detail::cell_voltage_capped(cell, i, g, detail::kStackVcellCap);
  const double v_sink =
      problem.through_mirror ? detail::mirror_drop(stack.mirror, i) : 0.0;
  return operating_point_at(problem, i, v_cell, v_sink);
}

StackOperatingPoint solve_stack_warm(const OxramParams& cell, double g,
                                     const StackConfig& stack, Polarity polarity,
                                     double v_drive, double v_wl, double i_warm) {
  StackOperatingPoint op;
  if (v_drive <= 0.0) return op;

  const detail::StackProblem problem{
      cell,          stack, g, v_drive, v_wl, polarity == Polarity::kReset,
      stack.bl_through_mirror && polarity == Polarity::kReset};

  double lo = 0.0, hi = detail::kStackCurrentMax;
  if (problem.residual(lo) <= 0.0) return op;  // stack cannot conduct

  // Safeguarded Newton. F' <= -1 everywhere, so |i - root| <= |F(i)| is a
  // rigorous error bound — tighter than the bracket, which Newton's one-sided
  // convergence rarely closes. Iterates escaping the bracket fall back to
  // bisection, so the worst case degrades to the scalar solver, never past it.
  double i = i_warm > 0.0 && i_warm < hi ? i_warm : 0.5 * (lo + hi);
  double v_cell = 0.0, v_sink = 0.0;
  for (int iter = 0; iter < 64; ++iter) {
    double dfdi = -1.0;
    const double f = problem.residual_with_derivative(i, dfdi, &v_cell, &v_sink);
    if (std::fabs(f) <= std::max(kStackSolveRelTol * i, kStackSolveAbsTol)) {
      return operating_point_at(problem, i, v_cell, v_sink);
    }
    if (f > 0.0) {
      lo = i;
    } else {
      hi = i;
    }
    if (bracket_converged(lo, hi)) break;
    double i_next = i - f / dfdi;
    if (!(i_next > lo && i_next < hi)) i_next = 0.5 * (lo + hi);
    i = i_next;
  }
  OXMLC_CHECK(hi < detail::kStackCurrentMax || problem.residual(hi) < 0.0,
              "solve_stack_warm: upper current bracket too small");
  i = 0.5 * (lo + hi);
  v_cell = detail::cell_voltage_capped(cell, i, g, detail::kStackVcellCap);
  v_sink = problem.through_mirror ? detail::mirror_drop(stack.mirror, i) : 0.0;
  return operating_point_at(problem, i, v_cell, v_sink);
}

FastCell::FastCell(const OxramParams& params, const StackConfig& stack, double initial_gap,
                   bool virgin)
    : params_(params), stack_(stack), gap_(initial_gap), virgin_(virgin) {}

FastCell FastCell::formed_lrs(const OxramParams& params, const StackConfig& stack) {
  return FastCell(params, stack, params.g_min, /*virgin=*/false);
}

OperationResult FastCell::apply_reset(const ResetOperation& op) {
  CellBatch batch;
  batch.add_reset(*this, op);
  return batch.run().front();
}

OperationResult FastCell::apply_set(const SetOperation& op) {
  CellBatch batch;
  batch.add_set(*this, op);
  return batch.run().front();
}

ReadResult FastCell::read() const {
  ReadResult r;
  const StackOperatingPoint op = solve_stack(params_, gap_, stack_, Polarity::kSet,
                                             kReadVoltage, kReadWlVoltage);
  r.current = op.current;
  r.r_cell = op.current > 0.0 ? op.v_cell / op.current : params_.r_leak;
  return r;
}

}  // namespace oxmlc::oxram
