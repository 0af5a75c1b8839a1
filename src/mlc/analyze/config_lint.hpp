// MLC configuration static analysis: the OXC0xx lint pass.
//
// The circuit analyzer (spice/analyze) proves a netlist is solvable; this
// pass proves an MLC *operating point* is decodable. It statically evaluates
// a target level placement against the drift model of oxram/drift.hpp — the
// same two-component relaxation/retention law the reliability engine runs —
// and reports, with stable codes, the configuration mistakes that otherwise
// surface as silently mis-programmed levels deep inside a Monte-Carlo sweep:
//
//   OXC000  malformed .mlc configuration file (parse failure)
//   OXC001  inverted level placement — iref not strictly decreasing or
//           nominal resistance not strictly increasing with level value
//   OXC002  zero-width band — adjacent levels share a nominal resistance, so
//           the decode thresholds between them collapse
//   OXC003  overlapping relaxation-widened bands — after the fast post-program
//           relaxation tail is applied to each band's low edge, adjacent
//           level bands intersect and decode errors become reachable
//   OXC004  unreachable level — the termination reference lies outside the
//           programming-current window or above the access-device compliance,
//           so the comparator can never fire for that level
//   OXC005  verify wait beyond the relaxation horizon — tau_relax is so long
//           the slow retention component moves during the wait, contaminating
//           the re-sense the relaxation-aware verify depends on
//   OXC006  verify wait below the relaxation horizon — tau_relax re-senses
//           before the fast component has expressed, so the verify filter
//           passes cells whose relaxation has not happened yet
//   OXC007  level count does not match 2^bits
//
// Band model (documented in DESIGN.md "Static analysis"): level k occupies
// [R_k (1 - n_sigma sigma_r), R_k (1 + n_sigma sigma_r)] as programmed. The
// fast relaxation acts multiplicatively on the gap depth above the LRS floor,
// and R ~ exp(g/g0), so a relaxation draw `a` maps a band low edge R to
// r_floor * (R / r_floor)^(1 - a). The static check uses the one-sided
// lognormal quantile a_q = relax_fraction * exp(sigma_relax * z) at
// z = relax_coverage_z (default 3.09, ~99.9 % coverage). An *effective*
// relaxation-aware verify (enabled, at least two passes, re-sensing after the
// fast component has expressed) re-terminates exactly the tail draws the
// quantile models, so the widening is dropped and only the programmed spread
// is checked — which is how the paper's own 4-bit Table 2 placement lints
// clean with verify on and trips OXC003 with verify off (the PAPERS.md
// programmed-state-stability result, reproduced statically).
//
// Findings reuse spice::analyze::Diagnostic / DiagnosticReport, so the CLI
// (`oxmlc_sim --lint placement.mlc`), the `.nolint` suppression story and the
// `oxmlc.lint.v2` JSON schema are shared with the circuit analyzer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mlc/program.hpp"
#include "oxram/drift.hpp"
#include "spice/analyze/diagnostic.hpp"

namespace oxmlc::mlc::analyze {

struct LintLevel {
  std::size_t value = 0;   // binary content
  double iref = 0.0;       // termination reference current (A)
  double r_nominal = 0.0;  // nominal post-program resistance (Ohm); 0 = unknown
};

// Everything the static pass needs to judge a placement. Parsed from a .mlc
// file (parse_mlc_config) or built from the calibrated paper point
// (paper_default).
struct MlcLintInput {
  std::size_t bits = 4;
  std::vector<LintLevel> levels;  // ascending by value

  // Programming-current window and the 1T-1R compliance ceiling.
  double i_min = 6e-6;
  double i_max = 36e-6;
  double i_compliance = 60e-6;

  // Band geometry: programmed spread (fractional sigma of R around nominal,
  // the termination-mismatch + C2C quantity), the sigma multiple a band
  // claims, and the LRS-adjacent resistance floor the relaxation widening
  // contracts toward.
  double sigma_r = 0.01;
  double n_sigma = 3.0;
  double r_floor = 30e3;

  // One-sided z of the relaxation-amplitude quantile used for widening.
  double relax_coverage_z = 3.09;

  oxram::DriftParams drift;

  // Relaxation-aware verify policy. A pass counts as in
  // mlc::DriftingWord::relax_verify (the `--retention` and ECC loop): it waits
  // tau_relax and re-senses, and all passes but the last re-terminate.
  bool verify_enabled = false;
  double tau_relax = kVerifyWait;
  std::size_t verify_max_passes = 2;

  // Codes listed by `.nolint` directives in the source file.
  std::vector<std::string> suppressed;

  // The paper's Table 2 placement (4 bits; other widths re-allocate ISO-dI
  // over the same window through the calibrated R(IrefR) curve) with the
  // relaxation-aware verify of the reliability stack enabled — the
  // configuration `oxmlc_sim --retention` actually runs, and the one the
  // repo's own lint gate must keep clean.
  static MlcLintInput paper_default(std::size_t bits = 4);
};

// Parses the .mlc configuration dialect (line-oriented, `*`/`#` comments):
//
//   .mlc bits=4
//   .window imin=6u imax=36u icomp=60u rfloor=30k
//   .spread sigma_r=0.01 nsigma=3 coverage_z=3.09
//   .level value=0 iref=36u r=38.17k
//   .drift tau_fast=1u nu_fast=0.8 relax_fraction=0.015 sigma_relax=0.9
//   .verify tau_relax=1m max_passes=2    (the last pass only re-senses)
//   .nolint OXC005
//
// Values are strict util::parse_si literals: finite, with an optional SI
// suffix and unit word ("36uA", "0.1meg"; not "nan" or "1mxyz"); bits=, value=
// and max_passes= must be integers in range. A bad value, key or directive
// throws util::ParseError at its line; the CLI surfaces that as a single
// OXC000 diagnostic so the report shape stays uniform.
MlcLintInput parse_mlc_config(const std::string& text);

// Runs every OXC check over the input. Does not throw on findings; `.nolint`
// codes from the input are already dropped. Ordering cascades are suppressed:
// an OXC001 inversion skips the band checks entirely (their geometry is
// meaningless), and an OXC002 zero-width pair skips its own OXC003.
spice::analyze::DiagnosticReport lint_mlc_config(const MlcLintInput& input);

// Exposed pieces of the band model, unit-tested directly.
//
// Low band edge after the quantile relaxation draw: r_floor * (r / r_floor)^
// (1 - a_q), clamped at r_floor; returns `r` untouched when drift is disabled.
double relaxation_widened_low_edge(const MlcLintInput& input, double r);
// Time by which the fast component has expressed `coverage` of its amplitude:
// tau_fast * (coverage_complement^(-1/nu_fast) - 1).
double relaxation_horizon(const oxram::DriftParams& drift, double coverage = 0.99);

}  // namespace oxmlc::mlc::analyze
