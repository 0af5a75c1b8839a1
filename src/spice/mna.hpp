// MNA assembly: adapts a Circuit to the Newton solver's NonlinearSystem.
#pragma once

#include <span>
#include <string>

#include "numeric/linear_error.hpp"
#include "numeric/newton.hpp"
#include "spice/analyze/analyzer.hpp"
#include "spice/circuit.hpp"

namespace oxmlc::spice {

class MnaSystem final : public num::NonlinearSystem {
 public:
  explicit MnaSystem(Circuit& circuit) : circuit_(circuit) {
    circuit_.finalize();
  }

  std::size_t dimension() const override { return circuit_.unknown_count(); }

  void assemble(std::span<const double> x, num::TripletMatrix* jacobian,
                std::span<double> residual) override;

  // Per-component Newton step clamp: node voltages move at most 1 V per
  // iteration (exponential device models diverge otherwise); branch currents
  // are unconstrained.
  double max_step(std::size_t component) const override {
    return component < circuit_.node_count() ? 1.0 : 0.0;
  }

  // The analysis drivers configure the context between Newton solves.
  StampContext& context() { return context_; }
  const StampContext& context() const { return context_; }

  Circuit& circuit() { return circuit_; }

  // Solver scratch reused across every Newton solve on this system. It lives
  // exactly as long as the MnaSystem; the DC/transient drivers borrow it for
  // every solve_newton call so the Jacobian pattern cache and the LU symbolic
  // analysis persist across timesteps and sweep points. NOT thread-safe —
  // every pool body that solves a circuit builds its own MnaSystem.
  num::NewtonWorkspace& workspace() { return workspace_; }

  // Installs a bordered-block partition on the workspace solver: subsequent
  // DC/transient Newton solves factorize through num::BlockSchurLu instead of
  // the monolithic paths. Partitions come from analyze::derive_partition
  // or directly from an array builder that knows its border nodes.
  void set_partition(const num::BlockPartition& partition);

  // Codes the precheck drops (forwarded to the analyzer; set before the first
  // solve — the report is computed once and cached).
  analyze::AnalyzerOptions& analyzer_options() { return analyzer_options_; }

  // Static-analysis gate run by the DC/transient drivers before the first
  // solve: warnings are logged, error-severity findings throw
  // InvalidArgumentError with the full formatted report — replacing the
  // singular-LU throw the broken topology would otherwise produce mid-Newton.
  // The report is cached; repeated solves (sweeps, Monte-Carlo) pay nothing.
  const analyze::DiagnosticReport& precheck();

  // "node 'bl' (devices RBL, CBL, X1)" or "branch current of 'VSL'" for the
  // unknown-vector index `idx`; used to translate LU pivot failures.
  std::string describe_unknown(std::size_t idx) const;

  // Re-throws a factorization failure as a ConvergenceError naming the
  // offending node/branch and its connected devices instead of a bare column.
  [[noreturn]] void rethrow_singular(const num::SingularMatrixError& error,
                                     const std::string& analysis) const;

 private:
  Circuit& circuit_;
  StampContext context_;
  num::NewtonWorkspace workspace_;
  analyze::AnalyzerOptions analyzer_options_;
  bool prechecked_ = false;
  analyze::DiagnosticReport precheck_report_;
};

}  // namespace oxmlc::spice
