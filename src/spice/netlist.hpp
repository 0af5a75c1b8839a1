// SPICE-style netlist text parser.
//
// Lets testbenches and users describe circuits in the familiar card format
// instead of C++ calls:
//
//   * terminated RST testbench
//   .param vdd=3.3 rbl={2*256}
//   VDD vdd 0 DC {vdd}
//   VSL sl 0 PULSE(0 1.6 0 10n 10n 3.5u)
//   RBL bl term {rbl}
//   CBL bl 0 1p
//   M1 sl wl be 0 NMOS W=0.8u L=0.5u
//   XCELL bl be OXRAM GAP=0.25n
//   .end
//
// Supported cards (first letter selects the device, SPICE convention):
//   R / C / L                         two-terminal passives
//   V / I                             sources: DC <v> | <v> |
//                                     PULSE(v1 v2 [td tr tf pw per]) |
//                                     PWL(t1 v1 t2 v2 ...) |
//                                     SIN(off amp freq [delay])
//   E / G                             VCVS / VCCS: out+ out- in+ in- gain
//   D                                 diode: anode cathode [IS=..] [N=..]
//   M                                 MOSFET: d g s b NMOS|PMOS W=.. L=..
//                                     [VT0=..] [KP=..] [LAMBDA=..]
//   S                                 switch: a b c+ c- [VT=..] [RON=..]
//                                     [ROFF=..]
//   X<name> te be OXRAM               OxRAM cell: [GAP=..] [VIRGIN=0|1]
// Directives: .param NAME=VALUE..., .nolint CODE..., .end, * / ; comments,
// + continuations. A D, M, S or X card takes only the keys listed for it,
// each at most once. Every other card ends at its value (a source at its
// value or waveform): a token after it is OXP003.
//
// Values are util::parse_si literals with SI suffixes (f p n u m k meg g t);
// letters after the suffix are ignored (SPICE convention; lint OXA007 unless a
// unit word), or {expressions} over numbers and .param names with + - * / and
// parentheses. A value must be finite: "nan", "1e400" or {1e308*10} is OXP004.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "spice/analyze/diagnostic.hpp"
#include "spice/circuit.hpp"
#include "util/parse.hpp"

namespace oxmlc::spice {

// Structured parse failure: the ParseError line ("netlist line N: [OXPnnn]
// message") plus a stable OXP0xx code.
class NetlistError : public util::ParseError {
 public:
  NetlistError(std::size_t line, std::string code, const std::string& message)
      : util::ParseError("netlist", line, "[" + code + "] " + message),
        code_(std::move(code)) {}

  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

struct ParsedNetlist {
  Circuit circuit;
  std::string title;                         // first line when it is not a card
  std::map<std::string, double> parameters;  // final .param table
  std::vector<std::string> device_names;     // in card order
  // Parser-side lint findings (OXA007 suspicious unit suffixes), already
  // filtered through the netlist's `.nolint` directives.
  analyze::DiagnosticReport lint;
  // Codes collected from `.nolint CODE...` directives; forward to
  // analyze::AnalyzerOptions::suppress when analyzing the parsed circuit.
  std::vector<std::string> suppressed;
};

// Parses the netlist text and builds the circuit (not yet finalized, so
// callers may add probes/devices programmatically before analysis).
// Throws NetlistError (line number + OXP0xx code) on malformed input:
//   OXP001  unknown device card
//   OXP002  unknown directive
//   OXP003  malformed card (missing nodes/tokens, a token after the value,
//           unbalanced parentheses, wrong waveform arity)
//   OXP004  bad value literal, rejected device parameter, unknown or repeated
//           card key, or a VIRGIN= flag other than 0 or 1
//   OXP005  unknown waveform or device model
//   OXP006  unresolved reference (F/H controlling source)
ParsedNetlist parse_netlist(const std::string& text);

// Parses one numeric value with SI suffix ("10k", "1p", "2.5meg", "1e-9"), a
// brace expression ("{2*vdd+1k}") or a parameter name against the given
// parameter table. Throws InvalidArgumentError unless the value is finite.
double parse_value(const std::string& token,
                   const std::map<std::string, double>& parameters = {});

}  // namespace oxmlc::spice
