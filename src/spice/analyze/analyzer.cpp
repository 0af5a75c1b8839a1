#include "spice/analyze/analyzer.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "numeric/structure.hpp"
#include "spice/device.hpp"

namespace oxmlc::spice::analyze {
namespace {

// Union-find over node indices with ground mapped to a virtual slot.
class NodeSets {
 public:
  explicit NodeSets(std::size_t node_count) : parent_(node_count + 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  // kGround (-1) maps to the last slot.
  std::size_t slot(int node) const {
    return node < 0 ? parent_.size() - 1 : static_cast<std::size_t>(node);
  }

  std::size_t find(std::size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }

  // Returns false when a and b were already connected (i.e. the edge closes a
  // cycle in the united graph).
  bool unite(int a, int b) {
    const std::size_t ra = find(slot(a));
    const std::size_t rb = find(slot(b));
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

  bool connected(std::size_t i, int node) { return find(i) == find(slot(node)); }

 private:
  std::vector<std::size_t> parent_;
};

void check_duplicate_names(const Circuit& circuit, DiagnosticReport& report) {
  std::map<std::string, std::size_t> counts;
  for (const auto& device : circuit.devices()) ++counts[device->name()];
  for (const auto& [name, count] : counts) {
    if (count < 2) continue;
    Diagnostic d;
    d.severity = Severity::kError;
    d.code = codes::kDuplicateDevice;
    d.device = name;
    d.message = "device name declared " + std::to_string(count) + " times";
    d.fix_hint = "rename the duplicates; device names key probes and controlled sources";
    report.add(std::move(d));
  }
}

void check_device_parameters(const Circuit& circuit, DiagnosticReport& report) {
  std::vector<Diagnostic> findings;
  for (const auto& device : circuit.devices()) {
    findings.clear();
    device->self_check(findings);
    for (Diagnostic& d : findings) {
      if (d.device.empty()) d.device = device->name();
      if (d.nodes.empty()) {
        for (int n : device->nodes()) d.nodes.push_back(circuit.node_name(n));
      }
      report.add(std::move(d));
    }
  }
}

void check_dangling_terminals(const Circuit& circuit, DiagnosticReport& report) {
  const std::size_t n = circuit.node_count();
  std::vector<std::size_t> attachments(n, 0);
  std::vector<const Device*> only_device(n, nullptr);
  for (const auto& device : circuit.devices()) {
    for (int node : device->nodes()) {
      if (node < 0) continue;
      ++attachments[static_cast<std::size_t>(node)];
      only_device[static_cast<std::size_t>(node)] = device.get();
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (attachments[i] != 1) continue;
    Diagnostic d;
    d.severity = Severity::kWarning;
    d.code = codes::kDanglingTerminal;
    d.device = only_device[i]->name();
    d.nodes = {circuit.node_name(static_cast<int>(i))};
    d.message = "node is attached to a single device terminal";
    d.fix_hint = "a one-off node name is usually a typo; connect the node or drop it";
    report.add(std::move(d));
  }
}

// Floating components (OXA001) and current-source cutsets (OXA003) share the
// connectivity pass: components of the conductance+voltage graph that do not
// reach ground are floating; if a current source injects across the component
// boundary the DC problem is ill-posed, not just weakly anchored.
void check_connectivity(const Circuit& circuit,
                        const std::vector<std::pair<const Device*, StructuralEdge>>& edges,
                        DiagnosticReport& report) {
  const std::size_t n = circuit.node_count();
  NodeSets sets(n);
  for (const auto& entry : edges) {
    const StructuralEdge& edge = entry.second;
    if (edge.kind == EdgeKind::kConductance || edge.kind == EdgeKind::kVoltageSource) {
      sets.unite(edge.a, edge.b);
    }
  }

  // Group non-ground-connected nodes by component root.
  std::map<std::size_t, std::vector<int>> floating;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = sets.find(i);
    if (sets.connected(root, kGround)) continue;
    floating[root].push_back(static_cast<int>(i));
  }

  for (const auto& [root, nodes] : floating) {
    // Does any current source cross the component boundary?
    const Device* injector = nullptr;
    for (const auto& [device, edge] : edges) {
      if (edge.kind != EdgeKind::kCurrentSource) continue;
      const bool a_in = sets.connected(sets.slot(edge.a), nodes.front());
      const bool b_in = sets.connected(sets.slot(edge.b), nodes.front());
      if (a_in != b_in) {
        injector = device;
        break;
      }
    }
    Diagnostic d;
    if (injector != nullptr) {
      d.severity = Severity::kError;
      d.code = codes::kCurrentCutset;
      d.device = injector->name();
      d.message = "current source forces current into a subcircuit with no DC "
                  "return path to ground";
      d.fix_hint = "add a DC path (resistor) to ground or gate the source";
    } else {
      d.severity = Severity::kWarning;
      d.code = codes::kFloatingNode;
      d.message = "no DC path to ground; the operating point is only anchored "
                  "by the solver's gmin shunt";
      d.fix_hint = "add a DC path to ground (e.g. a large resistor) or "
                   "suppress with .nolint OXA001";
    }
    for (int node : nodes) d.nodes.push_back(circuit.node_name(node));
    report.add(std::move(d));
  }
}

void check_voltage_loops(const Circuit& circuit,
                         const std::vector<std::pair<const Device*, StructuralEdge>>& edges,
                         DiagnosticReport& report) {
  const std::size_t n = circuit.node_count();
  NodeSets sets(n);
  for (const auto& [device, edge] : edges) {
    if (edge.kind != EdgeKind::kVoltageSource) continue;
    if (!sets.unite(edge.a, edge.b)) {
      Diagnostic d;
      d.severity = Severity::kError;
      d.code = codes::kVoltageLoop;
      d.device = device->name();
      d.nodes = {circuit.node_name(edge.a), circuit.node_name(edge.b)};
      d.message = "closes a loop of voltage-source-like branches (V/E/H sources, "
                  "DC-shorted inductors); the loop current is indeterminate";
      d.fix_hint = "break the loop with a small series resistance";
      report.add(std::move(d));
    }
  }
}

void check_structural_singularity(Circuit& circuit, DiagnosticReport& report) {
  const std::size_t n = circuit.unknown_count();
  if (n == 0) return;

  // Assemble the Jacobian sparsity pattern exactly as MnaSystem::assemble
  // does at the first Newton iterate: devices stamp at x = 0 in DC mode, then
  // the universal kGmin shunt lands on every node diagonal.
  num::TripletMatrix pattern(n);
  std::vector<double> residual(n, 0.0);
  std::vector<double> x(n, 0.0);
  StampContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  ctx.x = x;
  Stamper stamper(&pattern, residual);
  for (auto& device : circuit.devices()) device->stamp(ctx, stamper);
  for (std::size_t i = 0; i < circuit.node_count(); ++i) pattern.add(i, i, kGmin);

  const num::StructuralRankResult rank = num::structural_rank(pattern);
  for (std::size_t row : rank.unmatched_rows) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.code = codes::kStructuralSingular;
    if (row < circuit.node_count()) {
      d.nodes = {circuit.node_name(static_cast<int>(row))};
      d.message = "MNA row of this node admits no pivot for any parameter "
                  "values (structurally singular)";
    } else {
      for (const auto& device : circuit.devices()) {
        const auto branches = device->branches();
        if (std::find(branches.begin(), branches.end(), static_cast<int>(row)) !=
            branches.end()) {
          d.device = device->name();
          for (int node : device->nodes()) d.nodes.push_back(circuit.node_name(node));
          break;
        }
      }
      d.message = "branch equation admits no pivot for any parameter values "
                  "(structurally singular); the branch constrains nothing";
    }
    d.fix_hint = "the device is degenerate as wired (e.g. a source with both "
                 "terminals on the same net); rewire or remove it";
    report.add(std::move(d));
  }
}

}  // namespace

DiagnosticReport analyze_circuit(Circuit& circuit, const AnalyzerOptions& options) {
  circuit.finalize();

  // Collect every device's structural self-description once.
  std::vector<std::pair<const Device*, StructuralEdge>> edges;
  for (const auto& device : circuit.devices()) {
    for (const StructuralEdge& edge : device->dc_edges()) {
      edges.emplace_back(device.get(), edge);
    }
  }

  DiagnosticReport report;
  check_duplicate_names(circuit, report);
  check_device_parameters(circuit, report);
  check_dangling_terminals(circuit, report);
  check_connectivity(circuit, edges, report);
  check_voltage_loops(circuit, edges, report);
  check_structural_singularity(circuit, report);
  report.suppress(options.suppress);
  return report;
}

}  // namespace oxmlc::spice::analyze
