#include "spice/analyze/diagnostic.hpp"

#include <algorithm>

#include "util/schema.hpp"

namespace oxmlc::spice::analyze {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::string Diagnostic::format() const {
  std::string out = std::string(severity_name(severity)) + "[" + code + "]: " + message;
  if (!device.empty() || !nodes.empty()) {
    out += " (";
    if (!device.empty()) out += "device " + device;
    if (!nodes.empty()) {
      if (!device.empty()) out += ", ";
      out += nodes.size() == 1 ? "node " : "nodes ";
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (i > 0) out += ", ";
        out += nodes[i];
      }
    }
    out += ")";
  }
  if (!fix_hint.empty()) out += " — " + fix_hint;
  return out;
}

obs::Json Diagnostic::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("severity", severity_name(severity));
  j.set("code", code);
  if (!device.empty()) j.set("device", device);
  obs::Json node_array = obs::Json::array();
  for (const auto& n : nodes) node_array.push_back(n);
  j.set("nodes", std::move(node_array));
  j.set("message", message);
  if (!fix_hint.empty()) j.set("fix_hint", fix_hint);
  return j;
}

void DiagnosticReport::add(Diagnostic diagnostic) {
  if (diagnostic.severity == Severity::kError) ++errors_;
  if (diagnostic.severity == Severity::kWarning) ++warnings_;
  diagnostics_.push_back(std::move(diagnostic));
}

bool DiagnosticReport::has_code(const std::string& code) const {
  return std::any_of(diagnostics_.begin(), diagnostics_.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

void DiagnosticReport::suppress(const std::vector<std::string>& codes) {
  if (codes.empty()) return;
  auto suppressed = [&](const Diagnostic& d) {
    return std::find(codes.begin(), codes.end(), d.code) != codes.end();
  };
  diagnostics_.erase(std::remove_if(diagnostics_.begin(), diagnostics_.end(), suppressed),
                     diagnostics_.end());
  errors_ = warnings_ = 0;
  for (const auto& d : diagnostics_) {
    if (d.severity == Severity::kError) ++errors_;
    if (d.severity == Severity::kWarning) ++warnings_;
  }
}

std::string DiagnosticReport::format() const {
  std::string out;
  for (const auto& d : diagnostics_) {
    out += d.format();
    out += "\n";
  }
  out += std::to_string(errors_) + " error(s), " + std::to_string(warnings_) +
         " warning(s)\n";
  return out;
}

obs::Json DiagnosticReport::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("schema", util::kLintSchema);
  j.set("errors", static_cast<double>(errors_));
  j.set("warnings", static_cast<double>(warnings_));
  obs::Json list = obs::Json::array();
  for (const auto& d : diagnostics_) list.push_back(d.to_json());
  j.set("diagnostics", std::move(list));
  return j;
}

}  // namespace oxmlc::spice::analyze
