#include <gtest/gtest.h>

#include <cmath>

#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "oxram/device.hpp"
#include "spice/dc.hpp"
#include "spice/netlist.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace oxmlc::spice {
namespace {

// ---------------------------------------------------------------------------
// value parsing
// ---------------------------------------------------------------------------

TEST(NetlistValue, SiSuffixes) {
  EXPECT_DOUBLE_EQ(parse_value("10k"), 10e3);
  EXPECT_DOUBLE_EQ(parse_value("1p"), 1e-12);
  EXPECT_DOUBLE_EQ(parse_value("2.5meg"), 2.5e6);
  EXPECT_DOUBLE_EQ(parse_value("100n"), 100e-9);
  EXPECT_DOUBLE_EQ(parse_value("3.3"), 3.3);
  EXPECT_DOUBLE_EQ(parse_value("1e-9"), 1e-9);
  EXPECT_DOUBLE_EQ(parse_value("1f"), 1e-15);
  EXPECT_DOUBLE_EQ(parse_value("4g"), 4e9);
}

TEST(NetlistValue, UnitTailIgnoredAfterSuffix) {
  EXPECT_DOUBLE_EQ(parse_value("10kohm"), 10e3);
  EXPECT_DOUBLE_EQ(parse_value("5uF"), 5e-6);
}

TEST(NetlistValue, Expressions) {
  const std::map<std::string, double> params = {{"vdd", 3.3}, {"rload", 1e3}};
  EXPECT_DOUBLE_EQ(parse_value("{2*vdd}", params), 6.6);
  EXPECT_DOUBLE_EQ(parse_value("{vdd/2 + 0.35}", params), 2.0);
  EXPECT_DOUBLE_EQ(parse_value("{(1k + rload) * 2}", params), 4000.0);
  EXPECT_DOUBLE_EQ(parse_value("{-vdd}", params), -3.3);
  EXPECT_DOUBLE_EQ(parse_value("vdd", params), 3.3);  // bare parameter
}

TEST(NetlistValue, Errors) {
  EXPECT_THROW(parse_value("notanumber"), InvalidArgumentError);
  EXPECT_THROW(parse_value("{1 +}"), InvalidArgumentError);
  EXPECT_THROW(parse_value("{unknown_param}"), InvalidArgumentError);
  EXPECT_THROW(parse_value("{1/0}"), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// structural parsing
// ---------------------------------------------------------------------------

TEST(Netlist, TitleCommentsAndEnd) {
  auto parsed = parse_netlist(
      "* my testbench\n"
      "R1 a 0 1k ; trailing comment\n"
      ".end\n"
      "R2 b 0 1k\n");  // after .end: ignored
  EXPECT_EQ(parsed.title, " my testbench");
  EXPECT_EQ(parsed.device_names.size(), 1u);
  EXPECT_NE(parsed.circuit.find_device("R1"), nullptr);
  EXPECT_EQ(parsed.circuit.find_device("R2"), nullptr);
}

TEST(Netlist, ContinuationLines) {
  auto parsed = parse_netlist(
      "V1 in 0\n"
      "+ PULSE(0 1 10n 1n\n"
      "+ 1n 100n)\n"
      "R1 in 0 1k\n");
  auto* source = dynamic_cast<dev::VoltageSource*>(parsed.circuit.find_device("V1"));
  ASSERT_NE(source, nullptr);
  EXPECT_DOUBLE_EQ(source->waveform().value(50e-9), 1.0);
}

TEST(Netlist, ParamsPropagate) {
  auto parsed = parse_netlist(
      ".param vdd=2.5 half={vdd/2}\n"
      "V1 a 0 {vdd}\n"
      "R1 a b {2*1k}\n"
      "R2 b 0 2k\n");
  EXPECT_DOUBLE_EQ(parsed.parameters.at("half"), 1.25);
  auto* r1 = dynamic_cast<dev::Resistor*>(parsed.circuit.find_device("R1"));
  ASSERT_NE(r1, nullptr);
  EXPECT_DOUBLE_EQ(r1->resistance(), 2000.0);
}

TEST(Netlist, AllDeviceCardsParse) {
  auto parsed = parse_netlist(
      "V1 vdd 0 DC 3.3\n"
      "I1 vdd n1 10u\n"
      "R1 n1 0 1k\n"
      "C1 n1 0 1p\n"
      "L1 n1 n2 10u\n"
      "E1 n3 0 n1 0 2.0\n"
      "G1 n4 0 n1 0 1m\n"
      "D1 n2 0 IS=1e-14\n"
      "M1 n5 n1 0 0 NMOS W=2u L=0.5u\n"
      "M2 n5 n1 vdd vdd PMOS W=4u L=0.5u\n"
      "S1 n5 n6 n1 0 VT=1.0 RON=10\n"
      "X1 n6 0 OXRAM GAP=0.5n\n");
  EXPECT_EQ(parsed.device_names.size(), 12u);
  for (const auto& name : parsed.device_names) {
    EXPECT_NE(parsed.circuit.find_device(name), nullptr) << name;
  }
}

TEST(Netlist, ErrorsCarryLineNumbers) {
  try {
    parse_netlist("R1 a 0 1k\nQ1 a b c\n");
    FAIL() << "expected throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_netlist("R1 a 0\n"), InvalidArgumentError);     // missing value
  EXPECT_THROW(parse_netlist("+ orphan\n"), InvalidArgumentError);   // bad continuation
  EXPECT_THROW(parse_netlist("V1 a 0 TRIANGLE(1 2)\n"), InvalidArgumentError);
  EXPECT_THROW(parse_netlist("M1 d g s b BJT\n"), InvalidArgumentError);
  EXPECT_THROW(parse_netlist("X1 a b NOTOXRAM\n"), InvalidArgumentError);
  EXPECT_THROW(parse_netlist(".model foo\n"), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// parsed circuits must solve like hand-built ones
// ---------------------------------------------------------------------------

TEST(Netlist, VoltageDividerSolves) {
  auto parsed = parse_netlist(
      "* divider\n"
      "V1 in 0 10\n"
      "R1 in mid 1k\n"
      "R2 mid 0 3k\n");
  MnaSystem system(parsed.circuit);
  const auto result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  const int mid = parsed.circuit.node_index("mid");
  EXPECT_NEAR(result.solution[static_cast<std::size_t>(mid)], 7.5, 1e-6);
}

TEST(Netlist, CmosInverterFromText) {
  auto parsed = parse_netlist(
      ".param vdd=3.3\n"
      "VDD vdd 0 {vdd}\n"
      "VIN in 0 0\n"
      "M1 out in vdd vdd PMOS W=4u L=0.5u\n"
      "M2 out in 0 0 NMOS W=2u L=0.5u\n");
  MnaSystem system(parsed.circuit);
  const auto result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  const int out = parsed.circuit.node_index("out");
  EXPECT_GT(result.solution[static_cast<std::size_t>(out)], 3.2);
}

TEST(Netlist, RcTransientFromText) {
  auto parsed = parse_netlist(
      "VIN in 0 PULSE(0 1 0 1n 1n 1m)\n"
      "R1 in out 1k\n"
      "C1 out 0 1n\n");
  MnaSystem system(parsed.circuit);
  TransientOptions options;
  options.t_stop = 1e-6;  // one time constant
  options.dt_max = 5e-9;
  const int out = parsed.circuit.node_index("out");
  std::vector<Probe> probes = {{"v", [out](double, std::span<const double> x) {
                                  return x[static_cast<std::size_t>(out)];
                                }}};
  const auto result = run_transient(system, options, probes);
  EXPECT_NEAR(result.probe_values[0].back(), 1.0 - std::exp(-1.0), 5e-3);
}

TEST(Netlist, OxramCellResetsFromText) {
  // RESET polarity: BE driven positive; the parsed cell must move to HRS.
  auto parsed = parse_netlist(
      "VBE be 0 PULSE(0 1.3 0 10n 10n 2u)\n"
      "X1 0 be OXRAM GAP=0.25n\n");
  auto* cell = dynamic_cast<oxram::OxramDevice*>(parsed.circuit.find_device("X1"));
  ASSERT_NE(cell, nullptr);
  MnaSystem system(parsed.circuit);
  TransientOptions options;
  options.t_stop = 2.2e-6;
  options.dt_max = 10e-9;
  run_transient(system, options);
  EXPECT_GT(cell->resistance(0.3), 1e6);
}

TEST(Netlist, VirginOxramDefaultsToVirginGap) {
  auto parsed = parse_netlist("X1 a 0 OXRAM VIRGIN=1\n");
  auto* cell = dynamic_cast<oxram::OxramDevice*>(parsed.circuit.find_device("X1"));
  ASSERT_NE(cell, nullptr);
  EXPECT_TRUE(cell->virgin());
  EXPECT_DOUBLE_EQ(cell->gap(), oxram::OxramParams{}.g_virgin);
}

}  // namespace
}  // namespace oxmlc::spice

// Appended coverage: F/H cards.
namespace oxmlc::spice {
namespace {

TEST(Netlist, CurrentControlledCards) {
  auto parsed = parse_netlist(
      "Vs a 0 1.0\n"
      "R1 a 0 1k\n"
      "F1 0 fo Vs 2.0\n"
      "RF fo 0 1k\n"
      "H1 ho 0 Vs 1k\n"
      "RH ho 0 1meg\n");
  MnaSystem system(parsed.circuit);
  const auto result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  // Same sign conventions as the ControlledSources device tests.
  EXPECT_NEAR(result.solution[static_cast<std::size_t>(parsed.circuit.node_index("fo"))],
              -2.0, 1e-6);
  EXPECT_NEAR(result.solution[static_cast<std::size_t>(parsed.circuit.node_index("ho"))],
              -1.0, 1e-6);
}

TEST(Netlist, CurrentControlledCardNeedsEarlierSensor) {
  EXPECT_THROW(parse_netlist("F1 0 out Vmissing 2.0\nR1 out 0 1k\n"),
               InvalidArgumentError);
}

}  // namespace
}  // namespace oxmlc::spice

// Appended coverage: structured parse errors (NetlistError codes + lines) and
// the parser-side lint channel (.nolint, OXA007 suffix smells).
namespace oxmlc::spice {
namespace {

// Parses text expecting failure; returns {code, line} of the NetlistError
// and, when `message` is given, stores its text there.
std::pair<std::string, std::size_t> parse_failure(const std::string& text,
                                                  std::string* message = nullptr) {
  try {
    parse_netlist(text);
  } catch (const NetlistError& e) {
    if (message != nullptr) *message = e.what();
    return {e.code(), e.line()};
  }
  ADD_FAILURE() << "expected NetlistError for: " << text;
  return {"", 0};
}

TEST(NetlistDiagnostics, UnknownDeviceCard) {
  const auto [code, line] = parse_failure("R1 a 0 1k\nQ1 a b c\n");
  EXPECT_EQ(code, "OXP001");
  EXPECT_EQ(line, 2u);
}

TEST(NetlistDiagnostics, UnknownDirective) {
  const auto [code, line] = parse_failure("R1 a 0 1k\n.model foo bar\n");
  EXPECT_EQ(code, "OXP002");
  EXPECT_EQ(line, 2u);
}

TEST(NetlistDiagnostics, MissingNodeToken) {
  const auto [code, line] = parse_failure("V1 in\n");
  EXPECT_EQ(code, "OXP003");
  EXPECT_EQ(line, 1u);
}

TEST(NetlistDiagnostics, MalformedCardArity) {
  EXPECT_EQ(parse_failure("R1 a 0\n").first, "OXP003");              // missing value
  EXPECT_EQ(parse_failure("V1 a 0 PULSE(1)\n").first, "OXP003");     // PULSE arity
  // PULSE takes at most 7 values and SIN at most 4 (SPICE's 5th, the
  // damping, is not modelled); a longer list is an error, not a dropped tail.
  EXPECT_NO_THROW(parse_netlist("V1 a 0 PULSE(0 1 0 1n 1n 1u 2u)\n"));
  EXPECT_EQ(parse_failure("V1 a 0 PULSE(0 1 0 1n 1n 1u 2u 5)\n").first, "OXP003");
  EXPECT_NO_THROW(parse_netlist("V1 a 0 SIN(0 1 1k 0)\n"));
  EXPECT_EQ(parse_failure("R1 a 0 1k\nV1 a 0 SIN(0 1 1k 0 5e3)\n"),
            std::make_pair(std::string("OXP003"), std::size_t{2}));
  EXPECT_EQ(parse_failure("V1 a 0 PWL(1 2 3)\n").first, "OXP003");   // odd PWL pairs
  EXPECT_EQ(parse_failure("+ orphan\n").first, "OXP003");            // bad continuation
  EXPECT_EQ(parse_failure("R1 a 0 1k extra)\n").first, "OXP003");    // unbalanced paren
  // A card ends at its value, a source at its value or waveform: a token
  // after it is an error at its line, not dropped.
  for (const char* card :
       {"R1 a 0 1k 2k", "C1 a 0 1p 2p", "L1 a 0 1u x", "V1 a 0 1 2", "V1 a 0 DC 1 junk",
        "V1 a 0 PULSE(0 1) junk", "I1 a 0 SIN(0 1 1k) 2", "E1 b 0 a 0 2 3",
        "G1 b 0 a 0 1m 2m"}) {
    EXPECT_EQ(parse_failure(std::string("* title\n") + card + "\n"),
              std::make_pair(std::string("OXP003"), std::size_t{2}))
        << card;
  }
  for (const char* card : {"F1 b 0 V1 2 3", "H1 b 0 V1 1k x"}) {
    EXPECT_EQ(parse_failure(std::string("V1 a 0 DC 1\n") + card + "\n"),
              std::make_pair(std::string("OXP003"), std::size_t{2}))
        << card;
  }
  EXPECT_NO_THROW(parse_netlist("V1 a 0 DC 1\nR1 a 0 1k\nE1 b 0 a 0 2\nF1 b 0 V1 2\n"));
}

TEST(NetlistDiagnostics, BadValueLiteral) {
  const auto [code, line] = parse_failure("V1 a 0 1\nR1 a 0 nonsense\n");
  EXPECT_EQ(code, "OXP004");
  EXPECT_EQ(line, 2u);
  // {expression} failures surface the same way.
  EXPECT_EQ(parse_failure("R1 a 0 {1/0}\n").first, "OXP004");
  // A value or an expression result must be finite.
  for (const char* card : {"V1 a 0 nan", "R1 a 0 1e400", "C1 a 0 {1e308*10}"}) {
    const auto [card_code, card_line] = parse_failure(std::string("* title\n") + card + "\n");
    EXPECT_EQ(card_code, "OXP004") << card;
    EXPECT_EQ(card_line, 2u) << card;
  }
}

TEST(NetlistDiagnostics, RejectedDeviceParameterIsRebadged) {
  // The Resistor constructor rejects -5; the parser re-badges that as OXP004
  // with the netlist line attached.
  const auto [code, line] = parse_failure("V1 a 0 1\nR1 a 0 -5\n");
  EXPECT_EQ(code, "OXP004");
  EXPECT_EQ(line, 2u);
}

TEST(NetlistDiagnostics, UnknownWaveformAndModel) {
  EXPECT_EQ(parse_failure("V1 a 0 TRIANGLE(1 2)\n").first, "OXP005");
  EXPECT_EQ(parse_failure("M1 d g s b BJT\n").first, "OXP005");
}

TEST(NetlistDiagnostics, UnresolvedControllingSource) {
  EXPECT_EQ(parse_failure("F1 0 out Vmissing 2.0\nR1 out 0 1k\n").first, "OXP006");
}

TEST(NetlistDiagnostics, SuspiciousSuffixLint) {
  auto parsed = parse_netlist("V1 a 0 1\nR1 a 0 10kk\n");
  ASSERT_EQ(parsed.lint.diagnostics().size(), 1u);
  const auto& d = parsed.lint.diagnostics()[0];
  EXPECT_EQ(d.code, "OXA007");
  EXPECT_EQ(d.device, "R1");
  EXPECT_NE(d.message.find("10kk"), std::string::npos);
  EXPECT_NE(d.message.find("line 2"), std::string::npos);
  // Legitimate unit tails stay silent.
  EXPECT_TRUE(parse_netlist("R1 a 0 10kohm\nC1 a 0 5uF\n").lint.empty());
}

// A D, M, S or X card takes only its own keys: any other is OXP004 at its
// line, naming the keys the card takes.
TEST(NetlistDiagnostics, UnknownDiodeOptionIsRejected) {
  std::string message;
  const auto [code, line] =
      parse_failure("V1 a 0 1\nD1 a b TEMP=400 BOGUS=3\nR1 b 0 1k\n", &message);
  EXPECT_EQ(code, "OXP004");
  EXPECT_EQ(line, 2u);
  EXPECT_NE(message.find("TEMP"), std::string::npos) << message;
  EXPECT_NE(message.find("IS, N"), std::string::npos) << message;
}

TEST(NetlistDiagnostics, UnknownMosfetOptionIsRejected) {
  // VTO, a common misspelling of SPICE's VT0, is rejected rather than ignored.
  std::string message;
  const auto [code, line] =
      parse_failure("M1 d g 0 0 NMOS W=1u L=1u VTO=0.9\n", &message);
  EXPECT_EQ(code, "OXP004");
  EXPECT_EQ(line, 1u);
  EXPECT_NE(message.find("VTO"), std::string::npos) << message;
  EXPECT_NE(message.find("W, L, VT0, KP, LAMBDA"), std::string::npos) << message;
  EXPECT_NO_THROW(parse_netlist("M1 d g 0 0 NMOS w=1u l=1u vt0=0.9 kp=1e-4 lambda=0\n"));
}

TEST(NetlistDiagnostics, UnknownSwitchOptionIsRejected) {
  std::string message;
  const auto [code, line] = parse_failure("* title\nS1 a b c 0 VT=1 VON=2\n", &message);
  EXPECT_EQ(code, "OXP004");
  EXPECT_EQ(line, 2u);
  EXPECT_NE(message.find("VT, RON, ROFF"), std::string::npos) << message;
}

TEST(NetlistDiagnostics, UnknownOxramOptionIsRejected) {
  std::string message;
  const auto [code, line] = parse_failure("X1 a 0 OXRAM GAP=0.5n TEMP=300\n", &message);
  EXPECT_EQ(code, "OXP004");
  EXPECT_EQ(line, 1u);
  EXPECT_NE(message.find("GAP, VIRGIN"), std::string::npos) << message;
}

// A key given twice on one card is OXP004 at its line, naming the key; the
// option map would otherwise keep the last value.
TEST(NetlistDiagnostics, RepeatedOptionIsRejected) {
  std::string message;
  const auto [code, line] =
      parse_failure("V1 d 0 DC 3.3\nM1 d d 0 0 NMOS W=1u w=50u L=1u\n", &message);
  EXPECT_EQ(code, "OXP004");
  EXPECT_EQ(line, 2u);
  EXPECT_NE(message.find("w given twice"), std::string::npos) << message;
  EXPECT_EQ(parse_failure("* title\nX1 a 0 OXRAM GAP=1n GAP=2n\n"),
            std::make_pair(std::string("OXP004"), std::size_t{2}));
}

// VIRGIN= is a flag: 0 or 1, not "any nonzero value".
TEST(NetlistDiagnostics, OxramVirginFlagIsZeroOrOne) {
  for (const char* flag : {"0.5", "2", "-1"}) {
    std::string message;
    const auto [code, line] =
        parse_failure(std::string("* title\nX1 a 0 OXRAM VIRGIN=") + flag + "\n", &message);
    EXPECT_EQ(code, "OXP004") << flag;
    EXPECT_EQ(line, 2u) << flag;
    EXPECT_NE(message.find("VIRGIN expects 0 or 1"), std::string::npos) << message;
  }
  EXPECT_NO_THROW(parse_netlist("X1 a 0 OXRAM VIRGIN=0\n"));
  EXPECT_NO_THROW(parse_netlist("X1 a 0 OXRAM VIRGIN=1\n"));
}

TEST(NetlistDiagnostics, NolintSuppressesParserLint) {
  auto parsed = parse_netlist(".nolint OXA007 OXA001\nV1 a 0 1\nR1 a 0 10kk\n");
  EXPECT_TRUE(parsed.lint.empty());
  ASSERT_EQ(parsed.suppressed.size(), 2u);
  EXPECT_EQ(parsed.suppressed[0], "OXA007");
  EXPECT_EQ(parsed.suppressed[1], "OXA001");
}

}  // namespace
}  // namespace oxmlc::spice
