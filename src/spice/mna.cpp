#include "spice/mna.hpp"

#include <algorithm>

#include "numeric/schur_lu.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace oxmlc::spice {

void MnaSystem::set_partition(const num::BlockPartition& partition) {
  OXMLC_CHECK(partition.block_of.size() == dimension(),
              "MnaSystem::set_partition: partition size != unknown count");
  workspace_.solver.set_partition(partition);
}

void MnaSystem::assemble(std::span<const double> x, num::TripletMatrix* jacobian,
                         std::span<double> residual) {
  std::fill(residual.begin(), residual.end(), 0.0);
  if (jacobian != nullptr) jacobian->resize(dimension());

  context_.x = x;
  Stamper stamper(jacobian, residual);
  for (auto& device : circuit_.devices()) {
    device->stamp(context_, stamper);
  }

  // Universal gmin shunt from every node to ground: keeps the matrix
  // non-singular when a node is only driven through nonlinear devices that are
  // currently cut off (e.g. a MOSFET gate net before its driver turns on).
  // Its residual term stays when the Jacobian is not asked for.
  const double gmin = context_.gmin;
  const std::size_t nodes = circuit_.node_count();
  for (std::size_t i = 0; i < nodes; ++i) {
    if (jacobian != nullptr) jacobian->add(i, i, gmin);
    residual[i] += gmin * x[i];
  }
}

const analyze::DiagnosticReport& MnaSystem::precheck() {
  if (!prechecked_) {
    prechecked_ = true;
    precheck_report_ = analyze::analyze_circuit(circuit_, analyzer_options_);
    for (const analyze::Diagnostic& d : precheck_report_.diagnostics()) {
      if (d.severity == analyze::Severity::kWarning) {
        OXMLC_WARN << d.format();
      }
    }
  }
  if (precheck_report_.has_errors()) {
    throw InvalidArgumentError("circuit failed static analysis:\n" +
                               precheck_report_.format());
  }
  return precheck_report_;
}

std::string MnaSystem::describe_unknown(std::size_t idx) const {
  if (idx < circuit_.node_count()) {
    const int node = static_cast<int>(idx);
    std::string out = "node '" + circuit_.node_name(node) + "'";
    std::string attached;
    for (const auto& device : circuit_.devices()) {
      const auto& nodes = device->nodes();
      if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) continue;
      if (!attached.empty()) attached += ", ";
      attached += device->name();
    }
    if (!attached.empty()) out += " (devices " + attached + ")";
    return out;
  }
  for (const auto& device : circuit_.devices()) {
    const auto branches = device->branches();
    if (std::find(branches.begin(), branches.end(), static_cast<int>(idx)) !=
        branches.end()) {
      return "branch current of '" + device->name() + "'";
    }
  }
  return "unknown #" + std::to_string(idx);
}

void MnaSystem::rethrow_singular(const num::SingularMatrixError& error,
                                 const std::string& analysis) const {
  throw ConvergenceError(analysis + ": MNA matrix is numerically singular at " +
                         describe_unknown(error.column()) +
                         " — check for degenerate device wiring or "
                         "cancelling stamps (" + error.what() + ")");
}

}  // namespace oxmlc::spice
