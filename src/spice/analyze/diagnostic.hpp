// Structured diagnostics for the static analyzers.
//
// Every finding — from the netlist parser's unit-suffix lint to the MNA
// structural-singularity pre-check to the MLC configuration lint — is a
// `Diagnostic` with a stable code (OXA0xx for circuit analysis, OXP0xx for
// parse errors, OXC0xx for MLC configuration analysis), the offending
// device/nodes, a human message and a fix hint. Reports render as plain text
// (one line per finding, compiler-style) and as JSON (schema
// `oxmlc.lint.v2`, reusing obs::Json) so CI and editors can consume them.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace oxmlc::spice::analyze {

enum class Severity { kInfo, kWarning, kError };

const char* severity_name(Severity severity);

// Stable diagnostic codes. Codes are append-only: once shipped, a code keeps
// its meaning forever (CI corpora and suppression lists depend on them).
namespace codes {
inline constexpr const char* kFloatingNode = "OXA001";        // no DC path to ground
inline constexpr const char* kVoltageLoop = "OXA002";         // V-source/inductor loop
inline constexpr const char* kCurrentCutset = "OXA003";       // current-source-only node
inline constexpr const char* kDanglingTerminal = "OXA004";    // single-connection node
inline constexpr const char* kNonPositivePassive = "OXA005";  // R/C/L <= 0
inline constexpr const char* kDuplicateDevice = "OXA006";     // duplicate device names
inline constexpr const char* kSuspiciousSuffix = "OXA007";    // unit-suffix smells
inline constexpr const char* kStructuralSingular = "OXA008";  // symbolic zero pivot

// Netlist parse errors (carried by spice::NetlistError, not Diagnostic).
inline constexpr const char* kUnknownCard = "OXP001";       // unrecognized device letter
inline constexpr const char* kUnknownDirective = "OXP002";  // unrecognized .directive
inline constexpr const char* kMalformedCard = "OXP003";     // missing tokens/nodes, arity
inline constexpr const char* kBadValue = "OXP004";          // bad literal / rejected param
inline constexpr const char* kUnknownWaveform = "OXP005";   // unknown waveform or model
inline constexpr const char* kBadReference = "OXP006";      // unresolved device reference

// MLC configuration lint (mlc/analyze/config_lint.hpp): static evaluation of
// a level placement against the drift model's relaxation-widened bands.
inline constexpr const char* kConfigParse = "OXC000";        // malformed .mlc config
inline constexpr const char* kLevelsInverted = "OXC001";     // non-monotone iref/R order
inline constexpr const char* kZeroWidthBand = "OXC002";      // equal adjacent nominals
inline constexpr const char* kBandOverlap = "OXC003";        // relaxation-widened overlap
inline constexpr const char* kLevelUnreachable = "OXC004";   // iref outside window/compliance
inline constexpr const char* kVerifyOverHorizon = "OXC005";  // wait into retention regime
inline constexpr const char* kVerifyUnderHorizon = "OXC006"; // re-sense before relaxation
inline constexpr const char* kLevelCountMismatch = "OXC007"; // levels != 2^bits
}  // namespace codes

struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string code;                // e.g. "OXA001"
  std::string device;              // offending device name ("" when node-level)
  std::vector<std::string> nodes;  // involved node names
  std::string message;
  std::string fix_hint;

  // "error[OXA002]: loop of voltage sources ... (device VSL, nodes sl, 0) — hint"
  std::string format() const;
  obs::Json to_json() const;
};

// Ordered collection of findings with severity accounting and suppression.
class DiagnosticReport {
 public:
  void add(Diagnostic diagnostic);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }
  std::size_t warning_count() const { return warnings_; }
  bool has_errors() const { return errors_ > 0; }
  bool has_code(const std::string& code) const;

  // Drops every diagnostic whose code appears in `codes` (netlist `.nolint`).
  void suppress(const std::vector<std::string>& codes);

  // One formatted line per diagnostic plus a trailing summary line.
  std::string format() const;

  // {"schema": "oxmlc.lint.v2", "errors": N, "warnings": N, "diagnostics": [..]}
  obs::Json to_json() const;

 private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
};

}  // namespace oxmlc::spice::analyze
