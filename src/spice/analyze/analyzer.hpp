// Circuit static analyzer: structural verification before any solve.
//
// Runs over a finalized Circuit and reports topology and parameter problems
// that would otherwise surface as opaque singular-LU throws (or silently wrong
// answers) deep inside Newton:
//
//   OXA001  floating node — no DC path (conductance/voltage edge) to ground
//   OXA002  loop of voltage-source-like branches (V/E/H, DC-shorted inductors)
//   OXA003  current-source cutset — current forced into a floating subcircuit
//   OXA004  dangling device terminal — a node with a single attachment
//   OXA005  implausible passive value (likely unit typo)
//   OXA006  duplicate device names
//   OXA007  suspicious unit suffix in a netlist literal (emitted by the parser)
//   OXA008  structurally singular MNA pattern (symbolic zero pivot)
//
// Pass order is fixed (cheap graph passes first, then the symbolic matrix
// check, which always runs and shunts every node with the solver's kGmin from
// device.hpp) and documented in DESIGN.md; codes are stable. Checks can be
// suppressed per netlist with the `.nolint CODE...` directive or per call via
// AnalyzerOptions::suppress.
#pragma once

#include <string>
#include <vector>

#include "spice/analyze/diagnostic.hpp"
#include "spice/circuit.hpp"

namespace oxmlc::spice::analyze {

struct AnalyzerOptions {
  // Diagnostic codes to drop from the report (e.g. {"OXA001"}).
  std::vector<std::string> suppress;
};

// Analyzes the circuit (finalizing it if needed) and returns all findings.
// Does not throw on findings; callers decide how to react (the DC/transient
// entry points fail fast on error-severity findings, the CLI prints them).
DiagnosticReport analyze_circuit(Circuit& circuit, const AnalyzerOptions& options = {});

}  // namespace oxmlc::spice::analyze
