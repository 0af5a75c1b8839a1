// Static analyzers: every OXA0xx circuit check, the OXC0xx MLC configuration
// lint, suppression and the MnaSystem precheck gate. The broken-fixture corpus
// under tools/netlists/broken/ runs through the real oxmlc_sim in cli_test.
#include <gtest/gtest.h>

#include <string>

#include "mlc/analyze/config_lint.hpp"
#include "oxram/drift.hpp"
#include "spice/analyze/analyzer.hpp"
#include "spice/dc.hpp"
#include "spice/netlist.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace oxmlc::spice::analyze {
namespace {

DiagnosticReport analyze_text(const std::string& netlist,
                              const AnalyzerOptions& options = {}) {
  auto parsed = parse_netlist(netlist);
  return analyze_circuit(parsed.circuit, options);
}

TEST(Analyze, CleanCircuitHasNoFindings) {
  const auto report = analyze_text(
      "V1 in 0 DC 1\n"
      "R1 in out 1k\n"
      "R2 out 0 2k\n");
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(Analyze, FloatingComponentIsWarningNotError) {
  const auto report = analyze_text(
      "V1 in 0 DC 1\n"
      "R1 in 0 1k\n"
      "RF1 fa fb 1k\n"
      "RF2 fa fb 2k\n");
  EXPECT_TRUE(report.has_code(codes::kFloatingNode));
  EXPECT_FALSE(report.has_errors());  // gmin rescues it; solvers must not refuse
  EXPECT_EQ(report.warning_count(), 1u);
}

TEST(Analyze, ParallelVoltageSourcesAreALoop) {
  const auto report = analyze_text(
      "V1 a 0 DC 1\n"
      "V2 a 0 DC 2\n"
      "R1 a 0 1k\n");
  EXPECT_TRUE(report.has_code(codes::kVoltageLoop));
  EXPECT_TRUE(report.has_errors());
}

TEST(Analyze, InductorClosesVoltageLoop) {
  // An inductor is a DC short, so V1 || L1 is as degenerate as V1 || V2.
  const auto report = analyze_text(
      "V1 a 0 DC 1\n"
      "L1 a 0 10u\n"
      "R1 a 0 1k\n");
  EXPECT_TRUE(report.has_code(codes::kVoltageLoop));
}

TEST(Analyze, CurrentSourceCutsetIsError) {
  const auto report = analyze_text(
      "I1 0 x DC 1u\n"
      "C1 x 0 1p\n");
  EXPECT_TRUE(report.has_code(codes::kCurrentCutset));
  EXPECT_TRUE(report.has_errors());
  // The diagnostic names the injecting source.
  bool named = false;
  for (const auto& d : report.diagnostics()) {
    if (d.code == codes::kCurrentCutset) named = d.device == "I1";
  }
  EXPECT_TRUE(named);
}

TEST(Analyze, DanglingTerminalIsWarning) {
  const auto report = analyze_text(
      "V1 in 0 DC 1\n"
      "R1 in out 1k\n"
      "R2 out 0 1k\n"
      "R3 out orphan 1k\n");
  EXPECT_TRUE(report.has_code(codes::kDanglingTerminal));
  EXPECT_FALSE(report.has_errors());
}

TEST(Analyze, ImplausiblePassiveValueIsWarning) {
  const auto report = analyze_text(
      "V1 a 0 DC 1\n"
      "R1 a 0 1f\n");  // a femto-ohm resistor: '1f' was surely meant otherwise
  EXPECT_TRUE(report.has_code(codes::kNonPositivePassive));
  EXPECT_FALSE(report.has_errors());
}

TEST(Analyze, DuplicateDeviceNamesAreErrors) {
  const auto report = analyze_text(
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      "R1 a 0 2k\n");
  EXPECT_TRUE(report.has_code(codes::kDuplicateDevice));
  EXPECT_TRUE(report.has_errors());
}

TEST(Analyze, GroundedSourceIsStructurallySingular) {
  // Both terminals on the same net: the branch row of V1 is symbolically
  // empty, so no parameter values can make the MNA matrix non-singular.
  const auto report = analyze_text("V1 0 0 DC 1\n");
  EXPECT_TRUE(report.has_code(codes::kStructuralSingular));
  EXPECT_TRUE(report.has_errors());
}

TEST(Analyze, MosfetGateNetIsFloatingAtDc) {
  // A net driven only by MOSFET gates has no DC path: the gate edge is
  // capacitive in the structural model.
  const auto report = analyze_text(
      "VDD vdd 0 DC 3.3\n"
      "RD vdd d 10k\n"
      "M1 d g 0 0 NMOS W=2u L=0.5u\n"
      "CG g 0 1p\n");
  EXPECT_TRUE(report.has_code(codes::kFloatingNode));
  EXPECT_FALSE(report.has_errors());
}

TEST(Analyze, SuppressionDropsListedCodes) {
  AnalyzerOptions options;
  options.suppress = {codes::kFloatingNode};
  const auto report = analyze_text(
      "V1 in 0 DC 1\n"
      "R1 in 0 1k\n"
      "RF1 fa fb 1k\n"
      "RF2 fa fb 2k\n",
      options);
  EXPECT_TRUE(report.empty()) << report.format();
}

// --- MnaSystem precheck gate ---

TEST(Analyze, PrecheckFailsFastOnBrokenTopology) {
  auto parsed = parse_netlist(
      "V1 a 0 DC 1\n"
      "V2 a 0 DC 2\n"
      "R1 a 0 1k\n");
  MnaSystem system(parsed.circuit);
  try {
    solve_dc(system);
    FAIL() << "expected precheck throw";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("OXA002"), std::string::npos) << what;
    EXPECT_NE(what.find("V2"), std::string::npos) << what;
  }
}

TEST(Analyze, PrecheckCanBeDisabled) {
  auto parsed = parse_netlist(
      "V1 a 0 DC 1\n"
      "V2 a 0 DC 2\n"
      "R1 a 0 1k\n");
  MnaSystem system(parsed.circuit);
  DcOptions options;
  options.precheck = false;
  // Without the gate the degenerate loop reaches LU, which now names the
  // offending unknown instead of a bare column index.
  try {
    solve_dc(system, options);
    FAIL() << "expected singular-matrix throw";
  } catch (const ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("branch current"), std::string::npos)
        << e.what();
  }
}

TEST(Analyze, PrecheckPassesWarningsThrough) {
  auto parsed = parse_netlist(
      "V1 in 0 DC 1\n"
      "R1 in 0 1k\n"
      "RF1 fa fb 1k\n"
      "RF2 fa fb 2k\n");
  MnaSystem system(parsed.circuit);
  const auto result = solve_dc(system);  // warnings logged, solve proceeds
  EXPECT_TRUE(result.converged);
}

// --- MLC configuration lint (OXC0xx) ---

namespace mlca = oxmlc::mlc::analyze;

// Two well-separated levels with an effective relaxation-aware verify.
mlca::MlcLintInput two_level_input() {
  mlca::MlcLintInput input;
  input.bits = 1;
  input.levels = {{0, 36e-6, 40e3}, {1, 6e-6, 200e3}};
  input.verify_enabled = true;
  return input;
}

TEST(MlcConfigLint, PaperPlacementWithVerifyLintsClean) {
  // The configuration `oxmlc_sim --retention` actually runs: the ISO-dI
  // allocation over the calibrated R(IrefR) curve at 4 bits, verify on.
  const auto report = mlca::lint_mlc_config(mlca::MlcLintInput::paper_default(4));
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(MlcConfigLint, CleanTwoLevelInputHasNoFindings) {
  const auto report = mlca::lint_mlc_config(two_level_input());
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(MlcConfigLint, DisablingVerifyWidensBandsIntoOverlap) {
  // 100k/140k clears as programmed (103 vs 135.8 kOhm) but the 99.9 %
  // relaxation quantile drags the upper band's low edge to ~94 kOhm — the
  // static restatement of the paper's programmed-state-stability comparison.
  mlca::MlcLintInput input = two_level_input();
  input.levels = {{0, 36e-6, 100e3}, {1, 6e-6, 140e3}};
  EXPECT_TRUE(mlca::lint_mlc_config(input).empty());
  input.verify_enabled = false;
  const auto report = mlca::lint_mlc_config(input);
  EXPECT_TRUE(report.has_code(codes::kBandOverlap)) << report.format();
  EXPECT_TRUE(report.has_errors());
}

TEST(MlcConfigLint, SinglePassVerifyKeepsWidening) {
  // The last verify pass only re-senses (mlc::DriftingWord::relax_verify), so
  // one pass re-terminates nothing: the bands stay relaxation-widened, as with
  // the verify off. Two passes are the fewest that filter the tail.
  mlca::MlcLintInput input = two_level_input();
  input.levels = {{0, 36e-6, 100e3}, {1, 6e-6, 140e3}};
  input.verify_max_passes = 2;
  EXPECT_TRUE(mlca::lint_mlc_config(input).empty());
  input.verify_max_passes = 1;
  const auto report = mlca::lint_mlc_config(input);
  EXPECT_TRUE(report.has_code(codes::kBandOverlap)) << report.format();
  EXPECT_NE(report.format().find("max_passes"), std::string::npos) << report.format();
}

TEST(MlcConfigLint, UnderHorizonVerifyKeepsWideningAndWarns) {
  // A verify that re-senses at 2 us (fast component ~58 % expressed) does not
  // filter the tail: the widening stays in play on top of the OXC006 warning.
  mlca::MlcLintInput input = two_level_input();
  input.levels = {{0, 36e-6, 100e3}, {1, 6e-6, 140e3}};
  input.tau_relax = 2e-6;
  const auto report = mlca::lint_mlc_config(input);
  EXPECT_TRUE(report.has_code(codes::kVerifyUnderHorizon)) << report.format();
  EXPECT_TRUE(report.has_code(codes::kBandOverlap)) << report.format();
}

TEST(MlcConfigLint, OverHorizonVerifyWarns) {
  mlca::MlcLintInput input = two_level_input();
  input.tau_relax = 1000.0;
  const auto report = mlca::lint_mlc_config(input);
  EXPECT_TRUE(report.has_code(codes::kVerifyOverHorizon)) << report.format();
  EXPECT_FALSE(report.has_errors());
}

TEST(MlcConfigLint, InversionSuppressesBandChecks) {
  mlca::MlcLintInput input = two_level_input();
  std::swap(input.levels[0].r_nominal, input.levels[1].r_nominal);
  std::swap(input.levels[0].iref, input.levels[1].iref);
  const auto report = mlca::lint_mlc_config(input);
  EXPECT_TRUE(report.has_code(codes::kLevelsInverted));
  EXPECT_FALSE(report.has_code(codes::kBandOverlap)) << report.format();
}

TEST(MlcConfigLint, EqualNominalsAreZeroWidthNotInverted) {
  mlca::MlcLintInput input = two_level_input();
  input.levels[1].r_nominal = input.levels[0].r_nominal;
  const auto report = mlca::lint_mlc_config(input);
  EXPECT_TRUE(report.has_code(codes::kZeroWidthBand));
  EXPECT_FALSE(report.has_code(codes::kLevelsInverted)) << report.format();
  EXPECT_FALSE(report.has_code(codes::kBandOverlap)) << report.format();
}

TEST(MlcConfigLint, ComplianceCapMakesLevelUnreachable) {
  mlca::MlcLintInput input = two_level_input();
  input.i_compliance = 20e-6;  // level 0 terminates at 36 uA
  const auto report = mlca::lint_mlc_config(input);
  EXPECT_TRUE(report.has_code(codes::kLevelUnreachable));
  EXPECT_TRUE(report.has_errors());
}

TEST(MlcConfigLint, LevelCountMismatchIsWarning) {
  mlca::MlcLintInput input = two_level_input();
  input.bits = 2;
  const auto report = mlca::lint_mlc_config(input);
  EXPECT_TRUE(report.has_code(codes::kLevelCountMismatch));
  EXPECT_FALSE(report.has_errors());
}

TEST(MlcConfigLint, NolintDirectiveSuppressesCodes) {
  const auto input = mlca::parse_mlc_config(
      ".mlc bits=1\n"
      ".level value=0 iref=36u r=100k\n"
      ".level value=1 iref=6u r=140k\n"
      ".nolint OXC003\n");
  EXPECT_FALSE(input.verify_enabled);
  const auto report = mlca::lint_mlc_config(input);
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(MlcConfigLint, ParseErrorsCarryLineNumbers) {
  const auto expect_line_2 = [](const std::string& text) {
    try {
      mlca::parse_mlc_config(text);
      ADD_FAILURE() << "expected parse throw: " << text;
    } catch (const util::ParseError& e) {
      EXPECT_EQ(e.line(), 2u) << e.what();
    }
  };
  expect_line_2(".mlc bits=1\n.level value=0 iref=bogus\n");
  // Real fields must be finite, and letters after the SI suffix a unit word.
  for (const char* card : {".window imin=nan", ".window imax=inf", ".spread nsigma=-inf",
                           ".level value=0 iref=36u r=1e400", ".verify tau_relax=1mxyz"}) {
    expect_line_2(std::string(".mlc bits=1\n") + card + "\n.level value=1 iref=6u r=200k\n");
  }
  // Count fields must be finite integers in range: bits= in [1, 8], level
  // values and verify passes in [0, 2^53].
  for (const char* bits : {"-1", "1e30", "nan", "4.7", "64", "0", "9"}) {
    expect_line_2(std::string("* count fields\n.mlc bits=") + bits +
                  "\n.level value=0 iref=36u r=40k\n");
  }
  for (const char* card : {".level value=-1 iref=36u r=40k", ".level value=14.5 iref=36u r=40k",
                           ".verify max_passes=-1", ".verify max_passes=nan"}) {
    expect_line_2(std::string(".mlc bits=1\n") + card + "\n.level value=1 iref=6u r=200k\n");
  }
  // A key given twice on one directive (not "the last one wins"), and a flag
  // other than 0 or 1 (not "any nonzero value is on").
  for (const char* card : {".mlc bits=1 bits=2", ".level value=0 iref=36u iref=30u r=40k",
                           ".window imin=6u imin=7u", ".drift enabled=0.5",
                           ".verify enabled=2"}) {
    expect_line_2(std::string("* repeated keys, flags\n") + card +
                  "\n.level value=1 iref=6u r=200k\n");
  }
  // A one-line directive given again on a later line (not merged into the
  // first): the error is at the repeat and names the first line.
  for (const char* card : {".mlc bits=2", ".window imin=6u imax=36u", ".spread nsigma=3",
                           ".drift enabled=0", ".verify max_passes=2"}) {
    const std::string text = std::string(card) + "\n" + card +
                             "\n.mlc bits=1\n.level value=1 iref=6u r=200k\n";
    expect_line_2(text);
    try {
      mlca::parse_mlc_config(text);
    } catch (const util::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("first on line 1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(MlcConfigLint, ParserAcceptsSiSuffixes) {
  const auto input = mlca::parse_mlc_config(
      ".mlc bits=1\n"
      ".window imin=6u imax=36u icomp=60u rfloor=30k\n"
      ".level value=0 iref=36u r=0.1meg\n"
      ".level value=1 iref=6u r=200k\n"
      ".drift enabled=0\n"
      ".verify tau_relax=1m max_passes=2 enabled=1\n");
  EXPECT_DOUBLE_EQ(input.levels[0].r_nominal, 100e3);
  EXPECT_DOUBLE_EQ(input.tau_relax, 1e-3);
  EXPECT_EQ(input.verify_max_passes, 2u);
  EXPECT_FALSE(input.drift.enabled);
  EXPECT_TRUE(input.verify_enabled);
}

TEST(MlcConfigLint, WideningIsIdentityWithoutDrift) {
  mlca::MlcLintInput input = two_level_input();
  input.drift.enabled = false;
  EXPECT_DOUBLE_EQ(mlca::relaxation_widened_low_edge(input, 140e3), 140e3);
  input.drift.enabled = true;
  EXPECT_LT(mlca::relaxation_widened_low_edge(input, 140e3), 140e3);
  // The floor itself cannot be widened below the floor.
  EXPECT_DOUBLE_EQ(mlca::relaxation_widened_low_edge(input, input.r_floor),
                   input.r_floor);
}

TEST(MlcConfigLint, HorizonMatchesPhiCoverage) {
  const oxram::DriftParams drift;
  const double horizon = mlca::relaxation_horizon(drift);
  EXPECT_NEAR(oxram::drift_phi(horizon, drift.tau_fast, drift.nu_fast), 0.99, 1e-9);
}

}  // namespace
}  // namespace oxmlc::spice::analyze
